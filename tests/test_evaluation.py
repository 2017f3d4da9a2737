import decimal
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from stochgame import evaluation, shapley
from stochgame import (
    DiscountedProfileProvider,
    InputError,
    MarkovStrategy,
    StationaryStrategy,
    StochasticGame,
    adapted_profile,
    certify_epsilon_optimality,
    constant_payoff_curve,
    discounted_cumulative_payoff,
    discounted_value,
    estimate_discount_thresholds,
    finite_value,
    finite_values,
    guaranteed_value,
    monte_carlo_payoff,
    solve_matrix_game,
    stages_to_weight,
    trajectory,
    value_drift_diagnostic,
)
from stochgame.corpus import CORPUS, big_match, random_game, single_player_mdp, two_state_cycle

from oracles import (
    dyadic_variant,
    exact_error,
    exact_guarantee_levels,
    finite_values_recursion,
    long_double_discounted_cumulative,
    long_double_finite_values,
    long_double_response_levels,
    path_enumeration_discounted_cumulative,
    path_enumeration_stage_payoffs,
    pure_markov_best_response_value,
    reference_backward_induction,
    span_rule_stop,
    stationary_discounted_payoff,
    weight_horizon_scan,
    with_absorbing_states,
)


def constant_game(value=0.6, num_states=2):
    return StochasticGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        actions1=("a0", "a1"),
        actions2=("b0", "b1"),
        payoff=np.full((num_states, 2, 2), value),
        transition=np.full((num_states, 2, 2, num_states), 1.0 / num_states),
    )


def mirrored(game):
    """The game with the players' roles swapped: the new Player 1 is the old
    Player 2 and receives the negated payoff."""
    return StochasticGame(
        game.states,
        game.actions2,
        game.actions1,
        -game.payoff.transpose(0, 2, 1),
        game.transition.transpose(0, 2, 1, 3),
    )


def seeded_markov(num_states, num_actions, horizon, seed):
    rng = np.random.default_rng(seed)
    return MarkovStrategy.from_stages(
        [StationaryStrategy(rng.dirichlet(np.ones(num_actions), size=num_states)) for _ in range(horizon)]
    )


def sparse_transition_game(num_states=6, seed=0):
    """A game whose every cell moves to at most two states, some cells with a zero-weight entry."""
    rng = np.random.default_rng(seed)
    transition = np.zeros((num_states, 2, 3, num_states))
    for s in range(num_states):
        for i in range(2):
            for j in range(3):
                transition[s, i, j, (s + i + 1) % num_states] += 0.25 * j
                transition[s, i, j, (s + 2 * j + 3) % num_states] += 1.0 - 0.25 * j
    return StochasticGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        actions1=("a0", "a1"),
        actions2=("b0", "b1", "b2"),
        payoff=rng.uniform(-1, 1, (num_states, 2, 3)),
        transition=transition,
    )


def random_profile(game, seed):
    rng = np.random.default_rng(seed)
    x = StationaryStrategy(rng.dirichlet(np.ones(game.num_actions1), size=game.num_states))
    y = StationaryStrategy(rng.dirichlet(np.ones(game.num_actions2), size=game.num_states))
    return x, y


class TestStagesToWeight:
    def test_half_half_is_one_stage(self):
        assert stages_to_weight(0.5, 0.5) == 1

    def test_zero_fraction_is_one_stage(self):
        for discount in (0.01, 0.37, 0.99):
            assert stages_to_weight(discount, 0.0) == 1

    def test_matches_exact_scan_on_grid(self):
        discounts = np.linspace(0.015, 0.97, 50)
        fractions = np.linspace(0.0, 0.975, 50)
        for discount in discounts:
            for fraction in fractions:
                assert stages_to_weight(float(discount), float(fraction)) == weight_horizon_scan(
                    float(discount), float(fraction)
                )

    def test_exact_at_small_discount(self):
        # (1 - d)**M with 1 - d rounded to double once returned one stage more here
        discount, fraction = 1.366262733417267e-07, 0.9666643614421794
        stages = stages_to_weight(discount, fraction)
        assert stages == 24_893_660
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            base, target = 1 - decimal.Decimal(discount), decimal.Decimal(fraction)
            assert 1 - base**stages >= target > 1 - base ** (stages - 1)

    def test_monotone_in_fraction_and_discount(self):
        fractions = np.linspace(0.05, 0.9, 18)
        discounts = np.linspace(0.05, 0.9, 18)
        for discount in discounts:
            vals = [stages_to_weight(float(discount), float(t)) for t in fractions]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        for fraction in fractions:
            vals = [stages_to_weight(float(d), float(fraction)) for d in discounts]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain_checks(self):
        with pytest.raises(InputError):
            stages_to_weight(0.5, 1.0)
        with pytest.raises(InputError):
            stages_to_weight(1.0, 0.5)
        with pytest.raises(InputError):
            stages_to_weight(0.0, 0.5)


class TestTrajectory:
    def test_identity_kernel_stationary_profile_constant_payoffs(self):
        transition = np.zeros((2, 2, 2, 2))
        for s in range(2):
            transition[s, :, :, s] = 1.0
        rng = np.random.default_rng(0)
        game = StochasticGame(
            ("u", "w"), ("a0", "a1"), ("b0", "b1"), rng.uniform(-1, 1, (2, 2, 2)), transition
        )
        x, y = random_profile(game, 1)
        traj = trajectory(game, x, y, "u", 8)
        np.testing.assert_allclose(traj.stage_payoffs, traj.stage_payoffs[0], atol=1e-14)

    def test_constant_game_cumulative_is_linear(self):
        game = constant_game(0.6)
        x, y = random_profile(game, 2)
        traj = trajectory(game, x, y, 0, 10)
        for M in range(11):
            assert traj.cumulative[M] == pytest.approx(0.6 * M / 10, abs=1e-13)

    def test_matches_path_enumeration(self):
        game = random_game(2, 2, 2, seed=6).game
        x, y = random_profile(game, 3)
        sigma = MarkovStrategy.from_stationary(x, 5)
        rho = MarkovStrategy.from_stationary(y, 5)
        oracle = path_enumeration_stage_payoffs(game, sigma, rho, 0, 5)
        traj = trajectory(game, sigma, rho, 0, 5)
        np.testing.assert_allclose(traj.stage_payoffs, oracle, atol=1e-12)

    def test_exact_on_all_small_shapes(self):
        # every shape with at most 8 state-action combinations, horizon 5
        shapes = [
            (s, i, j)
            for s in (1, 2)
            for i in (1, 2)
            for j in (1, 2)
            if s * i * j <= 8
        ]
        for shape in shapes:
            for seed in (0, 1):
                game = random_game(*shape, seed=seed).game
                x, y = random_profile(game, seed + 10)
                sigma = MarkovStrategy.from_stationary(x, 5)
                rho = MarkovStrategy.from_stationary(y, 5)
                oracle = path_enumeration_stage_payoffs(game, sigma, rho, 0, 5)
                traj = trajectory(game, sigma, rho, 0, 5)
                np.testing.assert_allclose(traj.stage_payoffs, oracle, atol=1e-12)

    def test_decomposition_identity(self):
        game = random_game(3, 2, 2, seed=8).game
        x, y = random_profile(game, 4)
        traj = trajectory(game, x, y, 0, 40)
        for t in (0.1, 0.33, 0.5, 0.77):
            M = max(1, min(40, int(np.ceil(t * 40 - 1e-9))))
            tail = traj.stage_payoffs[M:].sum() / 40
            assert traj.cumulative[40] == pytest.approx(traj.cumulative[M] + tail, abs=5e-13)

    def test_horizon_mismatch_rejected(self):
        game = constant_game()
        x, y = random_profile(game, 5)
        sigma = MarkovStrategy.from_stationary(x, 5)
        rho = MarkovStrategy.from_stationary(y, 5)
        with pytest.raises(InputError, match="horizon"):
            trajectory(game, sigma, rho, 0, 6)

    def test_value_curve_tracks_reference(self):
        game = constant_game(0.6)
        x, y = random_profile(game, 6)
        vstar = np.array([1.5, 2.5])
        traj = trajectory(game, x, y, 0, 5, limit_value=vstar)
        assert traj.value_curve[0] == pytest.approx(1.5, abs=0.0)
        # uniform mixing kernel reaches the average immediately
        np.testing.assert_allclose(traj.value_curve[1:], 2.0, atol=1e-13)


class TestConstantPayoffCurve:
    def test_constant_game_deviation_is_rounding_only(self):
        game = constant_game(0.6)
        x, y = random_profile(game, 7)
        grid = [0.15, 0.4, 0.85]
        curve = constant_payoff_curve(game, (x, y), 0, 20, grid, np.full(2, 0.6))
        assert curve.sup_deviation <= 0.6 / 20 + 1e-12
        for t, M in zip(curve.t_grid, curve.stages):
            assert M == int(np.ceil(t * 20 - 1e-9))

    def test_single_state_optimal_stationary_profile(self):
        payoff = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        game = StochasticGame(("s",), ("a0", "a1"), ("b0", "b1"), payoff, np.ones((1, 2, 2, 1)))
        sol = solve_matrix_game(payoff[0])
        x = StationaryStrategy(sol.row_strategy[None, :])
        y = StationaryStrategy(sol.col_strategy[None, :])
        vstar = np.array([sol.value])
        curve = constant_payoff_curve(game, (x, y), 0, 25, [0.2, 0.5, 0.8], vstar)
        assert curve.sup_deviation <= game.max_abs_payoff / 25 + 1e-12

    def test_t_grid_validated(self):
        game = constant_game()
        x, y = random_profile(game, 8)
        with pytest.raises(InputError):
            constant_payoff_curve(game, (x, y), 0, 10, [0.0, 0.5], np.zeros(2))

    @pytest.mark.parametrize("start", ["play", "zero"])
    def test_limit_value_needs_an_entry_per_state(self, start):
        game = big_match().game
        x, y = random_profile(game, 9)
        with pytest.raises(InputError, match="limit_value must be a vector over the game's states"):
            constant_payoff_curve(game, (x, y), start, 10, [0.5], [0.5])

    def test_trajectory_and_thresholds_share_the_check(self):
        game = big_match().game
        x, y = random_profile(game, 9)
        with pytest.raises(InputError, match="limit_value must be a vector over the game's states"):
            trajectory(game, x, y, "play", 10, limit_value=[0.5])
        provider = DiscountedProfileProvider(game)
        with pytest.raises(InputError, match="limit_value must be a vector over the game's states"):
            estimate_discount_thresholds(game, provider, [0.5, 0.25], 3, [0.5])


class TestDiscountedCumulativePayoff:
    def test_constant_game_closed_form(self):
        game = constant_game(0.6)
        x, y = random_profile(game, 9)
        for discount, fraction in ((0.5, 0.3), (0.2, 0.7), (0.35, 0.5)):
            stages = stages_to_weight(discount, fraction)
            expected = 0.6 * (1.0 - (1.0 - discount) ** stages)
            got = discounted_cumulative_payoff(game, x, y, 0, discount, fraction)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_approaches_full_discounted_payoff(self):
        game = random_game(2, 2, 2, seed=11).game
        x, y = random_profile(game, 10)
        full = stationary_discounted_payoff(game, x, y, 0.5)[0]
        gaps = []
        for fraction in (0.9, 0.99, 0.999):
            got = discounted_cumulative_payoff(game, x, y, 0, 0.5, fraction)
            stages = stages_to_weight(0.5, fraction)
            tail_bound = (1.0 - 0.5) ** stages * game.max_abs_payoff
            gaps.append(abs(got - full))
            assert abs(got - full) <= tail_bound + 1e-12
        assert gaps[0] >= gaps[-1]

    def test_matches_truncated_path_enumeration(self):
        game = random_game(2, 2, 2, seed=13).game
        x, y = random_profile(game, 11)
        for discount, fraction in ((0.3, 0.5), (0.4, 0.7)):
            stages = stages_to_weight(discount, fraction)
            oracle = path_enumeration_discounted_cumulative(game, x, y, 0, discount, stages)
            got = discounted_cumulative_payoff(game, x, y, 0, discount, fraction)
            assert got == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize(
        "make_game",
        [big_match, two_state_cycle, lambda: random_game(3, 2, 2, seed=11)],
        ids=["big_match", "two_state_cycle", "random_3_2_2"],
    )
    def test_matches_long_double_stage_loop(self, make_game):
        # the closed form against the stage loop it replaced, carried in long double,
        # with the optimal stationary profile of each discount
        game = make_game().game
        for discount in (1e-2, 1e-3, 1e-4):
            sol = discounted_value(game, discount, tol=1e-8)
            stages = {t: stages_to_weight(discount, t) for t in (0.1, 0.5, 0.9)}
            loop = long_double_discounted_cumulative(game, sol.x, sol.y, 0, discount, set(stages.values()))
            for t, count in stages.items():
                got = discounted_cumulative_payoff(game, sol.x, sol.y, 0, discount, t)
                assert abs(got - loop[count]) <= 2e-11 * game.max_abs_payoff, (discount, t)


class TestGuaranteedValue:
    def test_no_adversary_choice_equals_trajectory_average(self):
        game = single_player_mdp().game
        rng = np.random.default_rng(12)
        sigma = MarkovStrategy.from_stages(
            [
                StationaryStrategy(rng.dirichlet(np.ones(2), size=3))
                for _ in range(6)
            ]
        )
        rho = StationaryStrategy.uniform(3, 1)
        cert = guaranteed_value(game, sigma, 6)
        for s, state in enumerate(game.states):
            traj = trajectory(game, sigma, rho, state, 6)
            assert cert.levels[0][s] == pytest.approx(traj.total_payoff, abs=1e-12)

    def test_optimal_strategy_epsilon_near_zero(self):
        game = random_game(2, 2, 2, seed=14).game
        sol = finite_value(game, 8)
        cert = guaranteed_value(game, sol.x_strategies, 8)
        assert cert.epsilon <= 8 * 1e-8
        assert cert.epsilon >= -8 * 1e-8

    def test_matches_pure_markov_best_response_enumeration(self):
        game = random_game(2, 2, 2, seed=16).game
        rng = np.random.default_rng(17)
        sigma = MarkovStrategy.from_stages(
            [StationaryStrategy(rng.dirichlet(np.ones(2), size=2)) for _ in range(3)]
        )
        oracle = pure_markov_best_response_value(game, sigma, 3)
        cert = guaranteed_value(game, sigma, 3)
        np.testing.assert_allclose(cert.levels[0], oracle, atol=1e-12)

    def test_guarantee_sandwich_under_seeded_opponents(self):
        game = random_game(2, 2, 2, seed=18).game
        rng = np.random.default_rng(19)
        sigma = MarkovStrategy.from_stages(
            [StationaryStrategy(rng.dirichlet(np.ones(2), size=2)) for _ in range(5)]
        )
        cert = guaranteed_value(game, sigma, 5)
        for seed in range(20):
            rho_rng = np.random.default_rng(seed)
            rho = MarkovStrategy.from_stages(
                [StationaryStrategy(rho_rng.dirichlet(np.ones(2), size=2)) for _ in range(5)]
            )
            for s, state in enumerate(game.states):
                payoff = trajectory(game, sigma, rho, state, 5).total_payoff
                assert cert.levels[0][s] <= payoff + 1e-9

    def test_levels_bounded_by_max_payoff(self):
        game = random_game(2, 2, 2, seed=20).game
        x, _ = random_profile(game, 21)
        cert = guaranteed_value(game, x, 10)
        assert np.abs(cert.levels).max() <= game.max_abs_payoff + 1e-12


class TestCertifyEpsilonOptimality:
    def test_backward_induction_profile_certifies_optimal(self):
        game = random_game(2, 2, 2, seed=22).game
        sol = finite_value(game, 6)
        eps = certify_epsilon_optimality(game, (sol.x_strategies, sol.y_strategies), 6)
        assert abs(eps) <= 2 * 6 * 1e-8

    def test_uniform_play_on_dominant_action_game_is_suboptimal(self):
        # Player 1's first row strictly dominates; uniform play gives it up
        payoff = np.array([[[1.0, 1.0], [0.0, 0.0]]])
        game = StochasticGame(("s",), ("top", "bottom"), ("l", "r"), payoff, np.ones((1, 2, 2, 1)))
        x = StationaryStrategy.uniform(1, 2)
        y = StationaryStrategy.uniform(1, 2)
        eps = certify_epsilon_optimality(game, (x, y), 5)
        assert eps >= 0.4

    @pytest.mark.parametrize(
        "seed, uniform_rho", [(31, False), (32, False), (33, True)], ids=["seeded", "seeded-2", "uniform"]
    )
    def test_player_two_side_matches_mirrored_enumeration(self, seed, uniform_rho):
        # the best reply to a fixed rho maximizes over Player 1's actions; in the
        # mirrored game it is the minimizing reply that the oracle enumerates
        game = random_game(2, 3, 2, seed=seed).game
        horizon = 3
        sigma = finite_value(game, horizon).x_strategies
        if uniform_rho:
            rho = MarkovStrategy.from_stationary(StationaryStrategy.uniform(2, 2), horizon)
        else:
            rho = seeded_markov(2, 2, horizon, seed + 100)
        v_n = finite_values_recursion(game, horizon)[-1]
        low = pure_markov_best_response_value(game, sigma, horizon)
        high = -pure_markov_best_response_value(mirrored(game), rho, horizon)
        assert (high - v_n).max() > 1e-3  # the Player 2 side decides the gap
        expected = max((v_n - low).max(), (high - v_n).max())
        eps = certify_epsilon_optimality(game, (sigma, rho), horizon)
        assert eps == pytest.approx(expected, abs=1e-12)

    def test_accepts_adapted_profile_objects(self):
        game = random_game(2, 2, 2, seed=23).game
        profile = adapted_profile(game, 12, 3, tol=1e-8)
        eps = certify_epsilon_optimality(game, profile, 12)
        assert eps >= -1e-8


def reference_response_levels(game, strategy, horizon, adversary_minimizes):
    """The best-response recursion written with fresh arrays per stage: one einsum
    per run of the strategy, then weight * payoff + (1 - weight) * (kernel @ w)
    and the min or max over the adversary's actions, per stage."""
    rule = "si,sij...->sj..." if adversary_minimizes else "sj,sij...->si..."
    levels = np.zeros((horizon + 1, game.num_states))
    w = levels[horizon]
    m = horizon
    for length, probs in reversed(list(strategy.runs(horizon))):
        own_payoff = np.einsum(rule, probs, game.payoff)
        own_kernel = np.einsum(rule, probs, game.transition)
        for _ in range(length):
            weight = 1.0 / (horizon - m + 1)
            totals = weight * own_payoff + (1.0 - weight) * (own_kernel @ w)
            w = totals.min(axis=1) if adversary_minimizes else totals.max(axis=1)
            levels[m - 1] = w
            m -= 1
    return levels


#: the corpus, and random games with equal and unequal action counts, so both players'
#: response buffers take both shapes
PINNED_GAMES = {name: ctor().game for name, ctor in CORPUS.items()} | {
    "x".join(map(str, shape)): random_game(*shape, seed=21).game
    for shape in ((3, 2, 2), (40, 2, 2), (5, 3, 3), (8, 6, 6), (6, 2, 5))
}


def pinned_profile(game, kind, horizon):
    if kind == "stationary":
        sol = discounted_value(game, 0.05)
        return sol.x, sol.y
    if kind == "markov":
        sol = finite_value(game, horizon)
        return sol.x_strategies, sol.y_strategies
    profile = adapted_profile(game, horizon)
    return profile.sigma, profile.rho


def response_stop(game, levels, strategy, horizon):
    """Stages remaining where the span rule first stops on the reference loop's ``levels``."""
    runs = [length for length, _ in reversed(list(strategy.runs(horizon)))]
    return span_rule_stop(levels[::-1], runs, shapley._AFFINE_TOL * game.max_abs_payoff)


class TestSameBytesAsEinsumLoop:
    """The response recursion reuses one set of buffers per call and returns the bytes
    of the loop that allocates fresh arrays per stage, on every stage up to the span rule's
    first stop; the rows before it, and the certificate, lie within ``_AFFINE_TOL * max|g|``
    of that loop, and keep its bytes on games where the span never closes."""

    @pytest.mark.parametrize("kind", ["stationary", "markov", "adapted"])
    @pytest.mark.parametrize("name", sorted(PINNED_GAMES))
    def test_levels_and_certificate(self, name, kind):
        game, horizon = PINNED_GAMES[name], 60
        tol = shapley._AFFINE_TOL * game.max_abs_payoff
        sigma, rho = pinned_profile(game, kind, horizon)
        markov = [evaluation._as_markov(game, s, horizon, player) for s, player in ((sigma, 1), (rho, 2))]
        low = reference_response_levels(game, markov[0], horizon, True)
        high = reference_response_levels(game, markov[1], horizon, False)
        got = guaranteed_value(game, sigma, horizon).levels
        solved = response_stop(game, low, markov[0], horizon)
        assert got.shape == low.shape and got[horizon - solved :].tobytes() == low[horizon - solved :].tobytes()
        assert np.abs(got - low).max() <= tol
        # v_n: finite_values, whose bytes tests/test_shapley.py pins to per-stage kernel calls
        v_n = finite_values(game, horizon)[-1]
        expected = float(max((v_n - low[0]).max(), (high[0] - v_n).max()))
        certificate = certify_epsilon_optimality(game, (sigma, rho), horizon)
        if min(solved, response_stop(game, high, markov[1], horizon)) == horizon:
            assert certificate == expected
        else:
            assert abs(certificate - expected) <= tol
        if name in ("big_match", "two_state_cycle"):
            assert solved == horizon and got.tobytes() == low.tobytes()


#: games whose limit value depends on the state, so the increments' span never closes
OPEN_SPAN_GAMES = {
    "big_match": lambda: big_match().game,
    "two_state_cycle": lambda: two_state_cycle().game,
    "absorbing_6x3x3": lambda: with_absorbing_states(random_game(6, 3, 3, seed=4).game),
}


class TestOpenSpanKeepsTheLoopBytes:
    """Where the span never closes, levels and certificates at n = 5,000 are the loop's bytes."""

    HORIZON = 5_000

    @pytest.fixture(scope="class", params=sorted(OPEN_SPAN_GAMES))
    def game_and_v_n(self, request):
        """One game object per name, shared by both profile kinds, and its v_n from the loop."""
        game = OPEN_SPAN_GAMES[request.param]()
        return game, reference_backward_induction(game, self.HORIZON)[0][-1]

    @pytest.mark.parametrize("kind", ["stationary", "markov"])
    def test_levels_and_certificates(self, game_and_v_n, kind):
        (game, v_n), horizon = game_and_v_n, self.HORIZON
        sigma, rho = pinned_profile(game, kind, horizon)
        markov = [evaluation._as_markov(game, s, horizon, player) for s, player in ((sigma, 1), (rho, 2))]
        low = reference_response_levels(game, markov[0], horizon, True)
        high = reference_response_levels(game, markov[1], horizon, False)
        certificate = guaranteed_value(game, sigma, horizon)
        assert certificate.levels.tobytes() == low.tobytes()
        assert certificate.epsilon == float((v_n - low[0]).max())
        expected = float(max((v_n - low[0]).max(), (high[0] - v_n).max()))
        assert certify_epsilon_optimality(game, (sigma, rho), horizon) == expected


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="long double is plain double on this platform, so it is no finer reference than the code under test",
)
class TestLongDoubleReference:
    """n-stage values, levels and certificates, affine tail included, against backward loops in
    long double that solve every stage.  The games' transition rows sum to exactly 1: with rows
    off by a defect d, the loop and the tail part by about n * d * max|g|."""

    #: the class takes about 2.3 s here, on a 2-vCPU x86-64 machine; 15,000 took 3.3 s
    HORIZON = 12_000

    @pytest.fixture(scope="class", params=[(40, 2, 2, 1), (3, 2, 2, 21)], ids=["40x2x2", "3x2x2"])
    def case(self, request):
        *shape, seed = request.param
        game = dyadic_variant(random_game(*shape, seed=seed).game)
        n, stationary = self.HORIZON, discounted_value(game, 0.05)
        markov = finite_value(game, n)
        profiles = {
            "stationary": tuple(MarkovStrategy.from_stationary(s, n) for s in (stationary.x, stationary.y)),
            "markov": (markov.x_strategies, markov.y_strategies),
        }
        levels = {kind: [long_double_response_levels(game, s, n, player) for player, s in enumerate(profile, 1)]
                  for kind, profile in profiles.items()}
        twin = dyadic_variant(random_game(*shape, seed=seed).game)  # no table from finite_value on it
        return game, twin, markov, profiles, long_double_finite_values(game, n), levels

    @staticmethod
    def gap(got, reference, game):
        """max |got - reference| in units of eps * max|g|; the pin is 4"""
        error = np.abs(np.asarray(got, dtype=np.longdouble) - reference).max()
        return float(error) / (np.finfo(float).eps * game.max_abs_payoff)

    def test_finite_values_and_finite_value(self, case):
        # measured: 0.34 and 2.18 (a loop row, before the stop), the same at n = 5,000 to 15,000
        game, twin, markov, _, values, _ = case
        assert self.gap(finite_values(twin, self.HORIZON), values, game) <= 4
        assert self.gap(markov.values, values, game) <= 4

    @pytest.mark.parametrize("kind", ["stationary", "markov"])
    def test_guarantee_levels_and_certificates(self, case, kind):
        # measured: at most 2.85, the certificate of finite_value's profile on 40x2x2; that one
        # grows with n, as the tail's slope error takes over (1.19 at n = 5,000, 3.53 at 15,000)
        game, _, _, profiles, values, levels = case
        (sigma, rho), (low, high) = profiles[kind], levels[kind]
        guarantee = guaranteed_value(game, sigma, self.HORIZON)
        assert self.gap(guarantee.levels, low, game) <= 4
        assert self.gap(guarantee.epsilon, (values[-1] - low[0]).max(), game) <= 4
        certificate = max((values[-1] - low[0]).max(), (high[0] - values[-1]).max())
        assert self.gap(certify_epsilon_optimality(game, (sigma, rho), self.HORIZON), certificate, game) <= 4


class TestExactReference:
    """Rounding error of the best-response levels against exact rational arithmetic."""

    @pytest.mark.parametrize("make_game", [big_match, two_state_cycle])
    def test_guarantee_levels_within_1e14_of_exact(self, make_game):
        # measured: 1.8e-15 on the Big Match and 8.9e-16 on the two-state cycle
        game = make_game().game
        sigma = finite_value(game, 400).x_strategies
        error = exact_error(guaranteed_value(game, sigma, 400).levels, exact_guarantee_levels(game, sigma, 400))
        assert error <= Fraction(1e-14) * Fraction(game.max_abs_payoff)


class TestBoolArguments:
    """``bool`` is an ``int``, but ``True`` is neither a horizon, a trial count nor a state."""

    @pytest.fixture
    def setup(self):
        game = big_match().game
        return game, random_profile(game, 5)

    def test_trajectory(self, setup):
        game, (x, y) = setup
        with pytest.raises(InputError, match="horizon must be a positive integer"):
            trajectory(game, x, y, 0, True)

    def test_monte_carlo_trials(self, setup):
        game, profile = setup
        with pytest.raises(InputError, match="trials must be a positive integer"):
            monte_carlo_payoff(game, profile, 0, 5, trials=True, seed=0)

    def test_guaranteed_value(self, setup):
        game, (x, _) = setup
        with pytest.raises(InputError, match="horizon must be a positive integer"):
            guaranteed_value(game, x, True)

    def test_certify_epsilon_optimality(self, setup):
        game, profile = setup
        with pytest.raises(InputError, match="horizon must be a positive integer"):
            certify_epsilon_optimality(game, profile, True)

    def test_numpy_bools(self, setup):
        game, profile = setup
        with pytest.raises(InputError, match="horizon must be a positive integer"):
            guaranteed_value(game, profile[0], np.True_)
        with pytest.raises(InputError, match="trials must be a positive integer"):
            monte_carlo_payoff(game, profile, 0, 5, trials=np.True_, seed=0)

    @pytest.mark.parametrize("state", [True, np.True_, False])
    def test_initial_state(self, setup, state):
        # as an index, True would start every path from state 1
        game, (x, y) = setup
        grid, vstar = (0.5,), np.zeros(game.num_states)
        for call in (lambda: trajectory(game, x, y, state, 5),
                     lambda: constant_payoff_curve(game, (x, y), state, 5, grid, vstar),
                     lambda: value_drift_diagnostic(game, (x, y), state, 5, grid, vstar),
                     lambda: monte_carlo_payoff(game, (x, y), state, 5, trials=3, seed=0)):
            with pytest.raises(InputError, match="state must be a label or an integer index"):
                call()


class TestNumpyIntegerArguments:
    """A numpy integer is a horizon or a trial count like the Python int of its value."""

    @pytest.mark.parametrize("count", [np.int64(7), np.int32(7), np.uint8(7)])
    def test_same_results_as_int(self, count):
        game = big_match().game
        x, y = random_profile(game, 5)
        assert guaranteed_value(game, x, count).levels.tobytes() == guaranteed_value(game, x, 7).levels.tobytes()
        assert certify_epsilon_optimality(game, (x, y), count) == certify_epsilon_optimality(game, (x, y), 7)
        assert trajectory(game, x, y, 0, count).cumulative.tobytes() == trajectory(game, x, y, 0, 7).cumulative.tobytes()
        estimate = monte_carlo_payoff(game, (x, y), 0, 7, trials=7, seed=3)
        assert monte_carlo_payoff(game, (x, y), 0, count, trials=count, seed=3) == estimate


class TestStrategyShapeChecked:
    """Every entry point checks each strategy's (states x actions) shape against the game once,
    in ``_as_markov``, and refuses a mismatch with InputError, never a numpy error or a number."""

    #: Player 2 strategies that do not fit the Big Match (3 states, 2 x 2 actions)
    WRONG = {
        "one_action": StationaryStrategy.uniform(3, 1),
        "three_actions": StationaryStrategy.uniform(3, 3),
        "five_states": StationaryStrategy.uniform(5, 2),
        "markov_three_actions": MarkovStrategy.from_stationary(StationaryStrategy.uniform(3, 3), 10),
    }

    @pytest.fixture
    def game(self):
        return big_match().game

    @pytest.mark.parametrize("wrong", sorted(WRONG))
    def test_monte_carlo_payoff(self, game, wrong):
        x = StationaryStrategy.uniform(3, 2)
        with pytest.raises(InputError, match="Player 2 strategy shape does not match the game"):
            monte_carlo_payoff(game, (x, self.WRONG[wrong]), 0, 10, trials=50, seed=0)

    @pytest.mark.parametrize("wrong", sorted(WRONG))
    def test_guaranteed_value(self, game, wrong):
        # the wrong strategies are Player 1's here: the players' action counts are equal
        with pytest.raises(InputError, match="Player 1 strategy shape does not match the game"):
            guaranteed_value(game, self.WRONG[wrong], 10)

    @pytest.mark.parametrize("wrong", sorted(WRONG))
    def test_certify_epsilon_optimality(self, game, wrong):
        x = StationaryStrategy.uniform(3, 2)
        with pytest.raises(InputError, match="Player 2 strategy shape does not match the game"):
            certify_epsilon_optimality(game, (x, self.WRONG[wrong]), 10)


class TestSameBytesOverJointRuns:
    """Trajectories and Monte Carlo estimates of profiles whose run boundaries interleave,
    at a horizon shorter than both strategies: ``finite_value``'s sigma (one run per stage)
    against an adapted rho (one run per block), and two adapted strategies whose blocks
    differ.  Recorded when each joint run was found by walking both strategies' runs; the
    joint runs are now index arithmetic over the run ends, and every bit must stay."""

    PINNED = {
        "big_match": (
            lambda: big_match().game, "finite_value",
            "dc6a9a83ab9e43bb883a83ee9ae771a4251c057a49c35620bb20b19d8aca125c",
            (0.5100460829493088, 0.01025921872989675),
        ),
        "random_8_6_6": (
            lambda: random_game(8, 6, 6, seed=3).game, "finite_value",
            "b1bf8d2f7b1ba14d93eb1c90d24102e52d10a08e6c4b02f7584f71d356f86fc8",
            (0.0013045935042140635, 0.003207386868147899),
        ),
        "big_match_blocks": (
            lambda: big_match().game, "adapted",
            "dd9c644e6c069b8c634c620f569dffd3ebcf6637966adfcd9d743a6b4b13dee7",
            (0.5076497695852534, 0.00998360096821211),
        ),
    }

    @staticmethod
    def profile(game, sigma_kind):
        if sigma_kind == "finite_value":
            # the backward-induction strategy with every stage solved, one table per stage: on
            # games where the span rule stops, finite_value's first run is longer
            tables = reference_backward_induction(game, 40)[1]
            sigma, rho = MarkovStrategy.from_stages(tables[::-1]), adapted_profile(game, 45).rho
        else:
            sigma, rho = adapted_profile(game, 40, 5).sigma, adapted_profile(game, 45, 7).rho
        assert sigma.horizon > 31 and rho.horizon > 31
        return sigma, rho

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_trajectory_bytes(self, case):
        make_game, sigma_kind, digest, _ = self.PINNED[case]
        game = make_game()
        sigma, rho = self.profile(game, sigma_kind)
        reference = np.arange(game.num_states) / game.num_states
        h = hashlib.sha256()
        for start in range(game.num_states):
            traj = trajectory(game, sigma, rho, start, 31, limit_value=reference)
            h.update(traj.stage_payoffs.tobytes())
            h.update(traj.value_curve.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_monte_carlo_estimate(self, case):
        make_game, sigma_kind, _, expected = self.PINNED[case]
        game = make_game()
        assert monte_carlo_payoff(game, self.profile(game, sigma_kind), 0, 31, 700, 9) == expected


class TestValueDrift:
    def test_single_state_game_zero_drift(self):
        payoff = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        game = StochasticGame(("s",), ("a0", "a1"), ("b0", "b1"), payoff, np.ones((1, 2, 2, 1)))
        x, y = random_profile(game, 24)
        report = value_drift_diagnostic(game, (x, y), 0, 10, [0.2, 0.5, 0.8], np.array([0.0]))
        assert report.sup_drift == 0.0

    def test_constant_reference_zero_drift(self):
        game = constant_game(0.4, num_states=3)
        x, y = random_profile(game, 25)
        report = value_drift_diagnostic(game, (x, y), 0, 10, [0.3, 0.6], np.full(3, 0.4))
        assert report.sup_drift <= 1e-14

    def test_block_fields_present_only_with_schedule(self):
        game = random_game(2, 2, 2, seed=26).game
        x, y = random_profile(game, 27)
        plain = value_drift_diagnostic(game, (x, y), 0, 10, [0.5], np.zeros(2))
        assert plain.within_block_max is None
        profile = adapted_profile(game, 12, 3, tol=1e-8)
        scheduled = value_drift_diagnostic(game, profile, 0, 12, [0.5], np.zeros(2))
        assert scheduled.within_block_target == pytest.approx(1.0 / 16)
        assert scheduled.global_target == pytest.approx(0.5)


    @staticmethod
    def forward_value_curve(game, profile, start, horizon, vstar):
        """E[v*(state at stage m)] for m = 1..horizon+1, one stage at a time."""
        dist = np.zeros(game.num_states)
        dist[start] = 1.0
        curve = [float(dist @ vstar)]
        for m in range(1, horizon + 1):
            x = profile.sigma.at_stage(m).probs
            y = profile.rho.at_stage(m).probs
            dist = np.einsum("s,si,sj,sijt->t", dist, x, y, game.transition)
            curve.append(float(dist @ vstar))
        return curve

    @staticmethod
    def leaking_game():
        """State A drains into the absorbing state Z at rate 0.1 whatever is
        played, so E[v*] with v* = (1, 0) falls steadily and every block's
        largest drift sits at its far end."""
        transition = np.zeros((2, 2, 2, 2))
        transition[0, ..., 0], transition[0, ..., 1] = 0.9, 0.1
        transition[1, ..., 1] = 1.0
        payoff = random_game(2, 2, 2, seed=29).game.payoff
        return StochasticGame(("A", "Z"), ("a0", "a1"), ("b0", "b1"), payoff, transition), np.array([1.0, 0.0])

    @staticmethod
    def mixing_game():
        return random_game(3, 2, 2, seed=28).game, np.array([0.9, -0.4, 0.1])

    @staticmethod
    def path_game():
        """A walk s0 -> s1 -> ... -> s10 (absorbing); v* is 1 only at s10, so
        from s0 the one drift is at stage 11."""
        transition = np.zeros((11, 1, 1, 11))
        transition[np.arange(11), 0, 0, np.minimum(np.arange(11) + 1, 10)] = 1.0
        game = StochasticGame(tuple(f"s{k}" for k in range(11)), ("a",), ("b",), np.zeros((11, 1, 1)), transition)
        return game, np.eye(11)[10]

    @pytest.mark.parametrize(
        "make_game, profile_horizon, block_length, horizon",
        [
            ("mixing_game", 11, 3, 11),
            ("mixing_game", 24, 5, 24),
            ("mixing_game", 12, 3, 10),
            ("leaking_game", 11, 3, 11),
            ("leaking_game", 24, 5, 24),
            ("leaking_game", 12, 3, 10),
            ("path_game", 12, 3, 10),  # only the cut last block, stages 10 and 11, drifts
        ],
    )
    def test_block_fields_match_forward_recursion(self, make_game, profile_horizon, block_length, horizon):
        self.check_block_fields(getattr(self, make_game)(), profile_horizon, block_length, horizon)

    def test_blocks_beyond_the_horizon_are_skipped(self):
        # blocks 2 and 3 of the 12-stage schedule start after stage 6
        self.check_block_fields(self.leaking_game(), 12, 3, 5)

    def check_block_fields(self, game_and_reference, profile_horizon, block_length, horizon):
        game, vstar = game_and_reference
        profile = adapted_profile(game, profile_horizon, block_length, tol=1e-10)
        report = value_drift_diagnostic(game, profile, 0, horizon, [0.5], vstar)
        curve = self.forward_value_curve(game, profile, 0, horizon, vstar)
        a, p = block_length, profile_horizon // block_length
        # each block from its first stage through the stage after it, cut at the horizon
        within = max(
            abs(curve[m] - curve[k * a])
            for k in range(p)
            for m in range(k * a, (k + 1) * a + 1)
            if m <= horizon
        )
        scheduled = max(abs(curve[m] - curve[0]) for m in range(min(p * a, horizon + 1)))
        assert within > 1e-3
        assert report.within_block_max == pytest.approx(within, abs=1e-14)
        assert report.global_max == pytest.approx(scheduled, abs=1e-14)
        assert report.within_block_target == p**-2
        assert report.global_target == 2.0 / p


class TestMonteCarlo:
    def test_deterministic_game_equals_exact_total(self):
        # pure strategies, deterministic kernel: one possible path
        payoff = np.array([[[0.3]], [[0.9]]])
        transition = np.zeros((2, 1, 1, 2))
        transition[0, 0, 0, 1] = 1.0
        transition[1, 0, 0, 0] = 1.0
        game = StochasticGame(("u", "w"), ("a",), ("b",), payoff, transition)
        x = StationaryStrategy.pure(2, 1, 0)
        mean, stderr = monte_carlo_payoff(game, (x, x), "u", 7, trials=20, seed=0)
        exact = trajectory(game, x, x, "u", 7).total_payoff
        assert mean == pytest.approx(exact, abs=1e-14)
        assert stderr == pytest.approx(0.0, abs=1e-14)

    def test_same_seed_reproduces_exactly(self):
        game = random_game(2, 2, 2, seed=28).game
        profile = random_profile(game, 29)
        a = monte_carlo_payoff(game, profile, 0, 25, trials=500, seed=1234)
        b = monte_carlo_payoff(game, profile, 0, 25, trials=500, seed=1234)
        assert a == b

    def test_distinct_seeds_differ(self):
        game = random_game(2, 2, 2, seed=30).game
        profile = random_profile(game, 31)
        a = monte_carlo_payoff(game, profile, 0, 25, trials=500, seed=1)
        b = monte_carlo_payoff(game, profile, 0, 25, trials=500, seed=2)
        assert a != b

    def test_estimate_within_four_standard_errors(self):
        for seed in range(3):
            game = random_game(2, 2, 2, seed=seed).game
            profile = random_profile(game, seed + 40)
            exact = trajectory(game, profile[0], profile[1], 0, 30).total_payoff
            mean, stderr = monte_carlo_payoff(game, profile, 0, 30, trials=10_000, seed=seed)
            assert abs(mean - exact) <= 4 * max(stderr, 1e-12)

    def test_trials_validated(self):
        game = constant_game()
        x, y = random_profile(game, 32)
        with pytest.raises(InputError):
            monte_carlo_payoff(game, (x, y), 0, 5, trials=0, seed=0)

    # The draw contract: the next action or state is the first column whose
    # cumulative probability reaches the uniform variate, capped at the last
    # column.  Written out here as the plain compare-and-count rule.

    @staticmethod
    def compare_and_count(cdf_rows, u):
        return np.minimum((cdf_rows < u[:, None]).sum(axis=1), cdf_rows.shape[1] - 1)

    def test_negative_rounding_weight_is_clipped(self):
        # kept at -1e-13, the weight would make the CDF row decrease, and the binary
        # search would draw action 2 where compare-and-count draws action 1
        x = StationaryStrategy([[0.5, -1e-13, 0.5 + 1e-13]])
        assert x.probs.tolist() == [[0.5, 0.0, 0.5 + 1e-13]]
        u = np.array([0.5 - 5e-14])
        cdf, width = evaluation._padded_cdf(x.probs)
        got = evaluation._sample_rows(cdf, width, np.zeros(1, dtype=np.intp), u)
        np.testing.assert_array_equal(got, self.compare_and_count(np.cumsum(x.probs, axis=1), u))

    def reference_estimate(self, game, x, y, start, horizon, trials, seed):
        """monte_carlo_payoff for a stationary profile, drawn by compare-and-count."""
        rng = np.random.default_rng(seed)
        x_cdf, y_cdf = np.cumsum(x.probs, axis=1), np.cumsum(y.probs, axis=1)
        kernel_cdf = np.cumsum(game.transition, axis=-1)
        states = np.full(trials, start)
        totals = np.zeros(trials)
        for _ in range(horizon):
            acts1 = self.compare_and_count(x_cdf[states], rng.random(trials))
            acts2 = self.compare_and_count(y_cdf[states], rng.random(trials))
            totals += game.payoff[states, acts1, acts2]
            states = self.compare_and_count(kernel_cdf[states, acts1, acts2], rng.random(trials))
        averages = totals / horizon
        stderr = float(averages.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        return float(averages.mean()), stderr

    @staticmethod
    def adversarial_rows(num_rows, cols, seed):
        """Probability rows with zero entries (repeated CDF values), rows summing to
        1 - 1e-16, and point masses on the first and the last column."""
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(cols), size=num_rows)
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[rows.sum(axis=1) == 0.0, -1] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        rows[1::3] *= 1.0 - 1e-16
        rows[0], rows[-1] = np.eye(cols)[0], np.eye(cols)[-1]
        return rows

    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 5, 8, 40, 64, 65])
    def test_sampler_matches_compare_and_count(self, cols):
        rows = self.adversarial_rows(30, cols, seed=cols)
        cdf_rows = np.cumsum(rows, axis=1)
        assert (np.diff(cdf_rows, axis=1) >= 0).all()
        # uniform draws, every CDF entry exactly, its neighbours, and the ends of [0, 1)
        u = np.concatenate([
            np.random.default_rng(cols).random(3000),
            cdf_rows.ravel(),
            np.nextafter(cdf_rows.ravel(), 0.0),
            np.nextafter(cdf_rows.ravel(), 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[u < 1.0]
        which = np.repeat(np.arange(len(rows)), len(u))  # every variate against every row
        u = np.tile(u, len(rows))
        cdf, width = evaluation._padded_cdf(rows)
        got = evaluation._sample_rows(cdf, width, which, u)
        np.testing.assert_array_equal(got, self.compare_and_count(cdf_rows[which], u))

    @pytest.mark.parametrize(
        "shape",
        [(1, 1, 1), (2, 3, 1), (3, 1, 4), (4, 5, 2), (5, 2, 3), (8, 8, 2), (40, 2, 2), (64, 2, 1), (65, 1, 2)],
    )
    def test_draws_match_compare_and_count(self, shape):
        states, n1, n2 = shape
        rng = np.random.default_rng(states)
        transition = self.adversarial_rows(states * n1 * n2, states, seed=states).reshape(shape + (states,))
        game = StochasticGame(
            tuple(f"s{k}" for k in range(states)),
            tuple(f"a{k}" for k in range(n1)),
            tuple(f"b{k}" for k in range(n2)),
            rng.uniform(-1, 1, shape),
            transition,
        )
        x = StationaryStrategy(self.adversarial_rows(states, n1, seed=n1 + 100))
        y = StationaryStrategy(self.adversarial_rows(states, n2, seed=n2 + 200))
        got = monte_carlo_payoff(game, (x, y), states - 1, 12, trials=300, seed=states)
        assert got == self.reference_estimate(game, x, y, states - 1, 12, 300, states)

    PINNED = {
        "big_match": (
            lambda: big_match().game, 50, 1000, 5,
            (0.89268, 0.009314654066597448),
        ),
        "random_8_6_6": (
            lambda: random_game(8, 6, 6, seed=3).game, 40, 500, 6,
            (0.0793059466102774, 0.003975520594331575),
        ),
        "sparse_transitions": (
            lambda: sparse_transition_game(), 30, 800, 7,
            (0.18991488371658938, 0.0034891549995844104),
        ),
        "one_action_player": (
            lambda: random_game(5, 1, 3, seed=2).game, 40, 600, 8,
            (-0.36004684082762817, 0.0024373015417113513),
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_estimates(self, case):
        # recorded with the compare-and-count draw; every bit must stay
        make_game, horizon, trials, seed, expected = self.PINNED[case]
        game = make_game()
        profile = random_profile(game, seed + 10)
        assert monte_carlo_payoff(game, profile, 0, horizon, trials, seed) == expected


class TestNStageValueOncePerGame:
    """The certificates read v_n from the rows the backward induction keeps on the game."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The (game, horizon) of every backward induction run."""
        calls = []
        real = shapley._backward_induction
        monkeypatch.setattr(shapley, "_backward_induction", lambda g, n: calls.append((g, n)) or real(g, n))
        return calls

    @staticmethod
    def expected_certificates(game, x, y, horizon):
        """Both certificates computed from a fresh n-stage solve."""
        v_n = finite_values(game, horizon)[-1]
        low = evaluation._response_levels(game, MarkovStrategy.from_stationary(x, horizon), horizon,
                                          adversary_minimizes=True)[0]
        high = evaluation._response_levels(game, MarkovStrategy.from_stationary(y, horizon), horizon,
                                           adversary_minimizes=False)[0]
        return float((v_n - low).max()), float(max((v_n - low).max(), (high - v_n).max()))

    def test_guarantee_then_certificate_solve_once(self, solves):
        game = random_game(4, 2, 3, seed=1).game
        x, y = random_profile(game, 2)
        guaranteed_value(game, x, 30)
        certify_epsilon_optimality(game, (x, y), 30)
        guaranteed_value(game, x, 30)
        assert solves == [(game, 30)]

    def test_other_horizon_solves_again(self, solves):
        game = big_match().game  # its span never closes
        x, y = random_profile(game, 2)
        certify_epsilon_optimality(game, (x, y), 20)
        certify_epsilon_optimality(game, (x, y), 30)
        certify_epsilon_optimality(game, (x, y), 25)
        assert solves == [(game, 20), (game, 30)]

    def test_closed_span_serves_every_horizon(self, solves):
        game = random_game(4, 2, 3, seed=1).game  # the span closes at r = 64
        x, y = random_profile(game, 2)
        horizons = (100, 20, 5000)
        got = [certify_epsilon_optimality(game, (x, y), n) for n in horizons]
        assert solves == [(game, 100)]
        twins = [StochasticGame(game.states, game.actions1, game.actions2, game.payoff, game.transition)
                 for _ in horizons]  # a fresh solve per horizon
        assert got == [certify_epsilon_optimality(twin, (x, y), n) for twin, n in zip(twins, horizons)]
        assert solves[1:] == list(zip(twins, horizons))

    def test_values_then_certificate_run_one_induction(self, solves):
        game = big_match().game
        table = finite_values(game, 400)
        x, y = random_profile(game, 3)
        epsilon = certify_epsilon_optimality(game, (x, y), 400)
        assert solves == [(game, 400)]
        assert epsilon == self.expected_certificates(game, x, y, 400)[1]
        assert table.tobytes() == finite_values(big_match().game, 400).tobytes()

    def test_long_horizon_certificates_run_one_induction(self, solves):
        game = random_game(40, 2, 2, seed=11).game
        sol = discounted_value(game, 1e-3)
        guaranteed_value(game, sol.x, 5000)
        certify_epsilon_optimality(game, (sol.x, sol.y), 5000)
        assert solves == [(game, 5000)]
        assert len(game._n_stage_cache[0]) <= 64

    def test_equal_game_object_solves_again(self, solves):
        game = random_game(4, 2, 3, seed=1).game
        twin = StochasticGame(game.states, game.actions1, game.actions2, game.payoff, game.transition, game.name)
        assert twin == game and twin is not game
        x, y = random_profile(game, 2)
        guaranteed_value(game, x, 30)
        guaranteed_value(twin, x, 30)
        assert [g for g, _ in solves] == [game, twin] and solves[0][0] is game and solves[1][0] is twin

    def test_recurring_object_ids_share_nothing(self):
        # each game is freed just before the next is made, so CPython hands its id on
        template = random_game(3, 2, 2, seed=0).game
        rng = np.random.default_rng(0)
        payoffs = rng.uniform(-1, 1, (40,) + template.payoff.shape)
        ids = []
        for payoff in payoffs:
            game = StochasticGame(template.states, template.actions1, template.actions2, payoff,
                                  template.transition)
            x, y = random_profile(game, len(ids))
            ids.append(id(game))
            got = guaranteed_value(game, x, 25).epsilon, certify_epsilon_optimality(game, (x, y), 25)
            assert got == self.expected_certificates(game, x, y, 25)
            del game
        assert len(set(ids)) < len(ids)

    def test_kept_rows_are_read_only(self):
        game = random_game(5, 2, 2, seed=4).game
        x, y = random_profile(game, 5)
        certify_epsilon_optimality(game, (x, y), 30)
        rows, _ = game._n_stage_cache
        assert not rows.flags.writeable
        np.testing.assert_array_equal(rows, finite_values(game, len(rows)))
        with pytest.raises(ValueError):
            rows[-1, 0] = 0.0
