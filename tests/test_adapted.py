import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame import (
    DiscountThresholds,
    DiscountedProfileProvider,
    InputError,
    ScheduleNotReadyError,
    adapted_profile,
    block_schedule,
    block_weight_mass,
    default_block_length,
    discounted_value,
    estimate_discount_thresholds,
    select_block_length,
    trajectory,
)
from stochgame.adapted import DEFAULT_DRIFT_T_GRID
from stochgame.evaluation import stages_to_weight
from stochgame.corpus import big_match, random_game
from stochgame.game import StationaryStrategy, StochasticGame

from oracles import expected_value_under_profile, long_double_far_stage, weight_horizon_scan


def constant_game(value=0.3):
    return StochasticGame(
        states=("u", "w"),
        actions1=("a0", "a1"),
        actions2=("b0", "b1"),
        payoff=np.full((2, 2, 2), value),
        transition=np.full((2, 2, 2, 2), 0.5),
    )


class TestBlockSchedule:
    def test_worked_example_n10_a3(self):
        sched = block_schedule(10, 3)
        assert sched.num_blocks == 3
        assert sched.discounts == (1 / 10, 1 / 7, 1 / 4, 1.0)
        assert [(m - 1) // 3 for m in range(1, 11)] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
        assert sched.discounts[(10 - 1) // 3] == 1.0

    def test_single_block_when_a_equals_n(self):
        sched = block_schedule(6, 6)
        assert sched.num_blocks == 1
        assert sched.discounts == (1 / 6,)

    def test_even_split(self):
        sched = block_schedule(4, 2)
        assert sched.num_blocks == 2
        assert sched.discounts == (1 / 4, 1 / 2)

    def test_bad_block_lengths_rejected(self):
        with pytest.raises(InputError):
            block_schedule(10, 1)
        with pytest.raises(InputError):
            block_schedule(10, 11)

    def test_discounts_increasing_in_unit_interval(self):
        for n, a in ((17, 3), (100, 7), (50, 50), (23, 2)):
            sched = block_schedule(n, a)
            d = sched.discounts
            assert all(0 < x <= 1 for x in d)
            assert all(x < y for x, y in zip(d, d[1:]))

    @given(n=st.integers(2, 500), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_stage_discount_bracketed_by_consecutive_blocks(self, n, data):
        # the per-stage discount 1/(n-m+1) sits between the block discounts
        a = data.draw(st.integers(2, n), label="block length")
        sched = block_schedule(n, a)
        p = sched.num_blocks
        for m in range(1, p * a + 1):
            k = (m - 1) // a
            per_stage = 1.0 / (n - m + 1)
            assert sched.discounts[k] <= per_stage + 1e-15
            if k + 1 < len(sched.discounts):
                assert per_stage <= sched.discounts[k + 1] + 1e-15

    def test_summary_fields(self):
        summary = block_schedule(10, 3).summary()
        assert summary == {"n": 10, "a": 3, "p": 3, "discounts": [1 / 10, 1 / 7, 1 / 4, 1.0]}


class TestAdaptedProfile:
    def test_constant_game_payoff_is_constant(self):
        game = constant_game(0.3)
        profile = adapted_profile(game, 12, 4, tol=1e-9)
        for start in ("u", "w"):
            traj = trajectory(game, profile.sigma, profile.rho, start, 12)
            assert traj.total_payoff == pytest.approx(0.3, abs=1e-9)

    def test_stage_map_matches_independent_discounted_solves(self):
        game = big_match().game
        profile = adapted_profile(game, 10, 3, tol=1e-9)
        sched = profile.schedule
        for stage in range(1, 11):
            discount = sched.discounts[(stage - 1) // sched.block_length]
            sol = discounted_value(game, discount, tol=1e-9)
            assert profile.sigma.at_stage(stage) == sol.x
            assert profile.rho.at_stage(stage) == sol.y

    def test_big_match_block_strategies_match_closed_form(self):
        # at discount d the active state optimally mixes (d/(1+d), 1/(1+d))
        game = big_match().game
        profile = adapted_profile(game, 10, 3, tol=1e-10)
        for stage, discount in ((1, 1 / 10), (4, 1 / 7), (7, 1 / 4), (10, 1.0)):
            x = profile.sigma.at_stage(stage).probs[0]
            np.testing.assert_allclose(
                x, [discount / (1 + discount), 1 / (1 + discount)], atol=1e-7
            )

    def test_single_block_profile_is_stationary(self):
        game = big_match().game
        profile = adapted_profile(game, 4, 4, tol=1e-9)
        assert len(profile.sigma.segments) == 1
        sol = discounted_value(game, 0.25, tol=1e-9)
        assert profile.sigma.at_stage(1) == sol.x

    def test_one_solve_per_block(self):
        game = big_match().game
        calls = []
        provider = DiscountedProfileProvider(game, tol=1e-8)
        original = provider.solution

        def counting(discount):
            calls.append(discount)
            return original(discount)

        provider.solution = counting
        profile = adapted_profile(game, 10, 3, provider=provider)
        assert sorted(calls) == sorted(profile.schedule.discounts)

    def test_tol_defaults_to_the_provider_and_must_match_it(self):
        game = big_match().game
        provider = DiscountedProfileProvider(game, tol=1e-9)
        assert adapted_profile(game, 10, 3, provider=provider).tol == 1e-9
        assert adapted_profile(game, 10, 3, tol=1e-9, provider=provider).tol == 1e-9
        assert adapted_profile(game, 10, 3).tol == 1e-8
        with pytest.raises(InputError, match="provider"):
            adapted_profile(game, 10, 3, tol=1e-8, provider=provider)

    def test_convergence_failure_tagged_with_block(self, monkeypatch):
        import stochgame.adapted as adapted_module
        from stochgame.errors import ConvergenceError

        def stall(game, discount, tol=1e-8, max_iterations=None):
            raise ConvergenceError("stalled", residual=1.0, iterations=1)

        monkeypatch.setattr(adapted_module, "discounted_value", stall)
        game = constant_game()
        with pytest.raises(ConvergenceError, match="block 0"):
            adapted_profile(game, 10, 3, tol=1e-8)

    def test_deterministic_reconstruction(self):
        game = random_game(2, 2, 2, seed=3).game
        a = adapted_profile(game, 30, 5, tol=1e-8)
        b = adapted_profile(game, 30, 5, tol=1e-8)
        assert a.sigma == b.sigma
        assert a.rho == b.rho
        assert a.schedule == b.schedule

    def test_summary_serializes_to_json(self):
        game = constant_game()
        profile = adapted_profile(game, 10, 3, tol=1e-8)
        summary = profile.summary()
        parsed = json.loads(json.dumps(summary))
        assert parsed["n"] == 10 and parsed["a"] == 3 and parsed["p"] == 3
        assert len(parsed["discounts"]) == 4
        assert "discounted_value" in parsed["source"]
        assert parsed["tol"] == 1e-8

    def test_default_block_length_is_sqrt_ceiling(self):
        assert default_block_length(2) == 2
        assert default_block_length(49) == 7
        assert default_block_length(50) == 8
        assert default_block_length(1600) == 40


class TestSelectBlockLength:
    def test_constant_half_thresholds_pick_two(self):
        thresholds = DiscountThresholds((0.5,) * 50, "analytic-default")
        assert select_block_length(100, thresholds) == 2

    def test_inverse_sqrt_thresholds_on_n100(self):
        values = tuple(min(0.5, p**-0.5) for p in range(1, 51))
        thresholds = DiscountThresholds(values, "analytic-default")
        got = select_block_length(100, thresholds)
        # exhaustive scan over candidate block lengths
        expected = None
        for a in range(2, 101):
            if 1.0 / a <= values[100 // a - 1]:
                expected = a
                break
        assert got == expected == 5

    def test_empty_admissible_set_raises_not_ready(self):
        tiny = DiscountThresholds((1e-9,) * 50, "analytic-default")
        with pytest.raises(ScheduleNotReadyError):
            select_block_length(100, tiny)

    def test_selection_satisfies_selection_inequality(self):
        thresholds = DiscountThresholds.analytic_default(500)
        for n in (10, 47, 100, 640, 1000):
            a = select_block_length(n, thresholds)
            assert 2 <= a <= n
            assert 1.0 / a <= thresholds.value_at(n // a)

    def test_block_fraction_vanishes(self):
        # with vanishing thresholds the selected block length is o(n)
        thresholds = DiscountThresholds.analytic_default(40_000)
        for eps, n_min in ((0.5, 8), (0.2, 40), (0.1, 200)):
            for n in (n_min, 4 * n_min, 20 * n_min):
                a = select_block_length(n, thresholds)
                assert a <= eps * n, (eps, n, a)

    def test_thresholds_must_cover_block_counts(self):
        short = DiscountThresholds((0.5, 0.5), "analytic-default")
        with pytest.raises(InputError):
            select_block_length(100, short)


class TestIntegerArguments:
    """Horizons and block lengths follow the horizon rule of the other layers: any integer type
    but bool, refused otherwise with InputError."""

    @pytest.mark.parametrize("count", [np.int64(100), np.int32(100), np.uint16(100)])
    def test_numpy_integers_are_their_int(self, count):
        assert block_schedule(count, np.int64(10)) == block_schedule(100, 10)
        assert default_block_length(count) == default_block_length(100) == 10
        thresholds = DiscountThresholds.analytic_default(50)
        assert select_block_length(count, thresholds) == select_block_length(100, thresholds)
        assert block_weight_mass(np.int64(10)) == block_weight_mass(10)
        game = big_match().game
        profile = adapted_profile(game, count)
        assert type(profile.horizon) is int and profile.horizon == 100
        assert profile.sigma == adapted_profile(game, 100).sigma

    @pytest.mark.parametrize("bad", [100.0, np.float64(100), True, np.True_, "100", None])
    def test_non_integers_rejected(self, bad):
        thresholds = DiscountThresholds.analytic_default(50)
        for call in (lambda: block_schedule(bad, 10), lambda: block_schedule(100, bad),
                     lambda: default_block_length(bad), lambda: select_block_length(bad, thresholds),
                     lambda: block_weight_mass(bad), lambda: adapted_profile(big_match().game, bad)):
            with pytest.raises(InputError, match="must be a positive integer|must be an integer >= 2"):
                call()


class TestBlockWeightMass:
    def test_bound_seven_eighths_over_full_range(self):
        masses = [block_weight_mass(a) for a in range(2, 10_001)]
        assert max(masses) <= 7.0 / 8.0
        assert masses[0] == 7.0 / 8.0  # tight at the smallest block length

    def test_monotone_decreasing_in_block_length(self):
        masses = [block_weight_mass(a) for a in range(2, 200)]
        assert all(x >= y for x, y in zip(masses, masses[1:]))


class TestEstimateDiscountThresholds:
    def test_constant_game_zero_drift_hits_grid_maximum(self):
        game = constant_game(0.9)
        provider = DiscountedProfileProvider(game, tol=1e-9)
        vstar = np.full(2, 0.9)
        grid = [0.5, 0.25, 0.125]
        thresholds = estimate_discount_thresholds(game, provider, grid, 6, vstar)
        assert thresholds.values == (0.5,) * 6
        assert thresholds.provenance == "empirical"
        assert not thresholds.approximate

    def test_single_state_game_zero_drift(self):
        game = StochasticGame(
            ("s",), ("a0", "a1"), ("b0", "b1"),
            np.array([[[1.0, -1.0], [-1.0, 1.0]]]),
            np.ones((1, 2, 2, 1)),
        )
        provider = DiscountedProfileProvider(game, tol=1e-9)
        thresholds = estimate_discount_thresholds(game, provider, [0.5, 0.25], 4, np.zeros(1))
        assert thresholds.values == (0.5,) * 4

    def test_big_match_thresholds_self_verify(self, big_match_entry):
        game = big_match_entry.game
        provider = DiscountedProfileProvider(game, tol=1e-8)
        vstar = np.array([0.5, 1.0, 0.0])
        grid = [2.0**-k for k in range(1, 13)]
        t_grid = tuple(k / 8 for k in range(1, 8))
        thresholds = estimate_discount_thresholds(game, provider, grid, 10, vstar, t_grid)
        assert len(thresholds) == 10
        # tighter drift budgets can only push the threshold down
        assert all(a >= b for a, b in zip(thresholds.values, thresholds.values[1:]))
        # re-verify each threshold against the 1/p^2 bound by recomputation
        for p in range(1, 11):
            if thresholds.approximate:
                continue
            mu = thresholds.value_at(p)
            for discount in grid:
                if discount > mu:
                    continue
                x, y = provider.profile(discount)
                stages = sorted({stages_to_weight(discount, t) for t in t_grid})
                curve = expected_value_under_profile(game, x, y, vstar, stages[-1])
                drift = max(float(np.abs(curve[m - 1] - vstar).max()) for m in stages)
                assert drift <= p**-2 + 1e-12

    @pytest.mark.parametrize(
        "make_game, max_blocks",
        [(big_match, 10), (lambda: random_game(3, 2, 2, seed=11), 1200)],
        ids=["big_match", "random_3_2_2"],
    )
    def test_thresholds_self_verify_down_to_2_pow_minus_20(self, make_game, max_blocks):
        # the last grid point weighs about 2.2 million stages: each drift is re-read
        # from a long-double matrix power instead of a stage loop
        game = make_game().game
        provider = DiscountedProfileProvider(game, tol=1e-8)
        grid = [2.0**-k for k in range(1, 21)]
        vstar = provider.solution(grid[-1]).value
        thresholds = estimate_discount_thresholds(game, provider, grid, max_blocks, vstar)
        drifts = []
        for discount in grid:
            x, y = provider.profile(discount)
            ends = [long_double_far_stage(game, x, y, vstar, stages_to_weight(discount, t)) for t in DEFAULT_DRIFT_T_GRID]
            drifts.append(float(np.abs(np.array(ends) - vstar).max()))
        violated = False
        for p in range(1, max_blocks + 1):
            mu = thresholds.value_at(p)
            if max(d for discount, d in zip(grid, drifts) if discount <= mu) <= p**-2 + 1e-12:
                # every grid discount up to the threshold keeps the drift within 1/p^2,
                # and the next larger one does not
                assert mu == grid[0] or drifts[grid.index(mu) - 1] > p**-2 - 1e-12
            else:
                violated = True
                assert mu == grid[-1]
        assert thresholds.approximate is violated

    def test_thresholds_clamped_to_half(self):
        game = constant_game(0.0)
        provider = DiscountedProfileProvider(game, tol=1e-9)
        thresholds = estimate_discount_thresholds(game, provider, [0.5], 3, np.zeros(2))
        assert all(v <= 0.5 for v in thresholds.values)

    def test_grid_preconditions(self):
        game = constant_game(0.0)
        provider = DiscountedProfileProvider(game, tol=1e-9)
        with pytest.raises(InputError):
            estimate_discount_thresholds(game, provider, [0.6, 0.3], 3, np.zeros(2))
        with pytest.raises(InputError):
            estimate_discount_thresholds(game, provider, [0.25, 0.5], 3, np.zeros(2))
        with pytest.raises(InputError):
            estimate_discount_thresholds(game, provider, [0.5, 0.25], 3, np.zeros(2), t_grid=(0.9,))


def grab_game():
    """Player 1 either stays in A (reference value 1) or moves to the absorbing
    state Z (reference value 0.25); Player 2 has no choice."""
    payoff = np.array([[[1.0], [3.0]], [[0.25], [0.25]]])
    transition = np.zeros((2, 2, 1, 2))
    transition[0, 0, 0, 0] = transition[0, 1, 0, 1] = 1.0
    transition[1, :, 0, 1] = 1.0
    return StochasticGame(("A", "Z"), ("stay", "grab"), ("-",), payoff, transition)


class FixedPlayProvider:
    """Serves a chosen pure action in A per discount instead of solving."""

    def __init__(self, grabs: dict):
        self.grabs = grabs

    def profile(self, discount):
        x = StationaryStrategy.pure(2, 2, [self.grabs[discount], 0])
        return x, StationaryStrategy.uniform(2, 1)


def selection_rule(game, provider, grid, max_blocks, vstar):
    """Thresholds written out: the drift of each grid discount by a plain forward
    recursion, then per p the largest discount whose whole tail stays within 1/p^2."""
    drifts = []
    for discount in grid:
        x, y = provider.profile(discount)
        kernel = np.einsum("si,sj,sijt->st", x.probs, y.probs, game.transition)
        stages = {weight_horizon_scan(discount, t) for t in DEFAULT_DRIFT_T_GRID}
        drift, u = 0.0, vstar
        for m in range(1, max(stages) + 1):
            if m in stages:
                drift = max(drift, float(np.abs(u - vstar).max()))
            u = kernel @ u
        drifts.append(drift)
    values, approximate = [], False
    for p in range(1, max_blocks + 1):
        within = [d for i, d in enumerate(grid) if max(drifts[i:]) <= p**-2]
        values.append(within[0] if within else grid[-1])
        approximate = approximate or not within
    return tuple(values), approximate


class TestProvider:
    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(InputError):
            DiscountedProfileProvider(big_match().game, tol)


class TestThresholdSelection:
    @pytest.mark.parametrize(
        "grid, grabs, expected, approximate",
        [
            # drifts 0.75, 0, 0.75, 0, 0: the tail, not the single entry, decides
            ([0.5, 0.4, 0.3, 0.25, 0.2], [1, 0, 1, 0, 0], (0.5,) + (0.25,) * 4, False),
            # solved play grabs when 3d + 0.25(1 - d) > 1, i.e. above d = 3/11
            ([0.5, 0.4, 0.3, 0.25, 0.2, 0.1], None, (0.5,) + (0.25,) * 5, False),
            # solved play grabs at every grid discount, so no p >= 2 is met
            ([0.5, 0.4, 0.3], None, (0.5, 0.3, 0.3, 0.3), True),
        ],
        ids=["fixed-play-tail", "solved-cutoff", "solved-approximate"],
    )
    def test_matches_the_selection_rule(self, grid, grabs, expected, approximate):
        game = grab_game()
        vstar = np.array([1.0, 0.25])
        if grabs is None:
            provider = DiscountedProfileProvider(game, tol=1e-10)
        else:
            provider = FixedPlayProvider(dict(zip(grid, grabs)))
        thresholds = estimate_discount_thresholds(game, provider, grid, len(expected), vstar)
        assert selection_rule(game, provider, grid, len(expected), vstar) == (expected, approximate)
        assert thresholds.values == expected
        assert thresholds.approximate is approximate


class TestThresholdType:
    def test_values_must_be_in_half_interval(self):
        with pytest.raises(InputError):
            DiscountThresholds((0.6,), "empirical")
        with pytest.raises(InputError):
            DiscountThresholds((0.0,), "empirical")

    def test_analytic_default_decays(self):
        thresholds = DiscountThresholds.analytic_default(100)
        assert thresholds.value_at(1) == 0.5
        assert thresholds.value_at(100) == pytest.approx(0.1)
        assert thresholds.value_at(100) < thresholds.value_at(25)
