from fractions import Fraction

import numpy as np
import pytest

from stochgame import (
    ConvergenceError,
    InputError,
    StochasticGame,
    certify_epsilon_optimality,
    discounted_value,
    finite_value,
    finite_values,
    guaranteed_value,
    limit_value_estimate,
    local_game_tensor,
    shapley_operator,
    solve_batch,
    solve_matrix_game,
)
from stochgame import shapley
from stochgame.corpus import CORPUS, big_match, random_game, single_player_mdp, two_state_cycle

from oracles import (
    bisection_big_match_discounted,
    exact_error,
    exact_finite_values,
    finite_values_recursion,
    mdp_discounted_value_iteration,
    mdp_finite_values,
    mdp_policy_enumeration_discounted,
    support_enumeration_solve,
)


def scaled(game, factor):
    return StochasticGame(
        game.states, game.actions1, game.actions2, factor * game.payoff, game.transition
    )


def twin_of(game):
    """An equal but distinct game object, so nothing kept on ``game`` reaches it."""
    return StochasticGame(game.states, game.actions1, game.actions2, game.payoff, game.transition, game.name)


def constant_game(value, num_states=2):
    return StochasticGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        actions1=("a0", "a1"),
        actions2=("b0", "b1"),
        payoff=np.full((num_states, 2, 2), value),
        transition=np.full((num_states, 2, 2, num_states), 1.0 / num_states),
    )


class TestOperator:
    def test_full_discount_ignores_continuation(self):
        game = random_game(2, 2, 2, seed=1).game
        out1 = shapley_operator(game, 1.0, np.zeros(2))
        out2 = shapley_operator(game, 1.0, np.array([5.0, -7.0]))
        np.testing.assert_allclose(out1, out2, atol=1e-14)
        expected = [solve_matrix_game(game.payoff[s]).value for s in range(2)]
        np.testing.assert_allclose(out1, expected, atol=1e-10)

    def test_single_state_constant_game_is_affine(self):
        game = constant_game(2.0, num_states=1)
        for discount in (0.3, 0.8):
            for v in (-1.0, 0.0, 4.0):
                got = shapley_operator(game, discount, [v])
                assert got[0] == pytest.approx(discount * 2.0 + (1 - discount) * v, abs=1e-14)

    def test_decision_problem_matches_bellman_update(self):
        game = single_player_mdp().game
        v = np.array([0.1, 0.4, 0.9])
        discount = 0.3
        got = shapley_operator(game, discount, v)
        expected = np.array(
            [
                max(
                    discount * game.payoff[s, i, 0]
                    + (1 - discount) * float(game.transition[s, i, 0] @ v)
                    for i in range(2)
                )
                for s in range(3)
            ]
        )
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_contraction_on_seeded_tuples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            game = random_game(int(rng.integers(1, 4)), 2, 2, int(rng.integers(0, 10_000))).game
            discount = float(rng.uniform(0.05, 1.0))
            v = rng.uniform(-2, 2, game.num_states)
            w = rng.uniform(-2, 2, game.num_states)
            lhs = np.abs(shapley_operator(game, discount, v) - shapley_operator(game, discount, w)).max()
            assert lhs <= (1 - discount) * np.abs(v - w).max() + 1e-10

    def test_monotone_in_values(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            game = random_game(2, 2, 2, int(rng.integers(0, 10_000))).game
            discount = float(rng.uniform(0.05, 0.95))
            v = rng.uniform(-2, 2, 2)
            w = v + rng.uniform(0.0, 1.0, 2)
            assert (
                shapley_operator(game, discount, v) <= shapley_operator(game, discount, w) + 1e-10
            ).all()


class TestDiscountedValue:
    def test_constant_game_has_constant_value(self):
        game = constant_game(0.4)
        for discount in (1.0, 0.5, 0.05):
            sol = discounted_value(game, discount, tol=1e-10)
            np.testing.assert_allclose(sol.value, 0.4, atol=1e-9)

    def test_big_match_active_value_half(self):
        game = big_match().game
        for discount in (0.1, 0.01):
            oracle = bisection_big_match_discounted(discount)
            sol = discounted_value(game, discount, tol=1e-8)
            assert sol.value[0] == pytest.approx(oracle, abs=1e-6)
            assert sol.value[0] == pytest.approx(0.5, abs=1e-6)

    def test_decision_problem_against_value_iteration_oracle(self):
        game = single_player_mdp().game
        sol = discounted_value(game, 0.25, tol=1e-10)
        oracle = mdp_discounted_value_iteration(game, 0.25)
        np.testing.assert_allclose(sol.value, oracle, atol=1e-8)

    def test_decision_problem_against_policy_enumeration(self):
        game = single_player_mdp().game
        sol = discounted_value(game, 0.25, tol=1e-10)
        oracle = mdp_policy_enumeration_discounted(game, 0.25)
        np.testing.assert_allclose(sol.value, oracle, atol=1e-8)

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            game = random_game(2, 2, 2, int(rng.integers(0, 10_000))).game
            discount = float(rng.uniform(0.05, 0.9))
            sol = discounted_value(game, discount, tol=1e-8)
            assert sol.residual <= 1e-8 * discount

    def test_extracted_profile_is_locally_optimal(self):
        game = random_game(3, 2, 2, seed=8).game
        sol = discounted_value(game, 0.2, tol=1e-9)
        local = local_game_tensor(game, 0.2, sol.value)
        for s in range(3):
            reference = solve_matrix_game(local[s])
            assert (sol.x.probs[s] @ local[s]).min() >= reference.value - 1e-8
            assert (local[s] @ sol.y.probs[s]).max() <= reference.value + 1e-8

    def test_shapley_consistency_with_extracted_strategy(self):
        # holding the extracted Player 1 strategy fixed, the best pure reply
        # reproduces the fixed point up to residual + solver gap
        game = random_game(3, 2, 2, seed=15).game
        sol = discounted_value(game, 0.3, tol=1e-9)
        local = local_game_tensor(game, 0.3, sol.value)
        replies = np.einsum("si,sij->sj", sol.x.probs, local).min(axis=1)
        assert np.abs(replies - sol.value).max() <= sol.residual + 1e-8

    def test_value_bounded_by_max_payoff(self):
        from stochgame.corpus import CORPUS

        pool = [random_game(2, 2, 2, seed).game for seed in range(20)]
        pool += [ctor().game for ctor in CORPUS.values()]
        for game in pool:
            sol = discounted_value(game, 0.2, tol=1e-8)
            assert np.abs(sol.value).max() <= game.max_abs_payoff + 1e-8

    def test_iteration_cap_raises_with_residual(self):
        game = big_match().game
        with pytest.raises(ConvergenceError) as info:
            discounted_value(game, 0.01, tol=1e-10, max_iterations=3)
        assert info.value.residual > 0.0
        assert info.value.iterations == 3

    def test_bad_discount_rejected(self):
        game = big_match().game
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(InputError):
                discounted_value(game, bad)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1e-8])
    def test_tol_must_be_positive_and_finite(self, tol):
        # an infinite tol would accept the starting guess min g as the value
        with pytest.raises(InputError):
            discounted_value(big_match().game, 0.01, tol=tol)


class TestSmallDiscounts:
    def test_big_match_against_bisection(self):
        game = big_match().game
        for discount in (1e-4, 1e-6):
            sol = discounted_value(game, discount, tol=1e-8)
            assert sol.value[0] == pytest.approx(bisection_big_match_discounted(discount), abs=1e-8)
            assert sol.residual <= 1e-8 * discount

    def test_iteration_count_does_not_depend_on_discount(self):
        # 3 Shapley applications and 2 policy evaluations at every discount
        game = big_match().game
        assert discounted_value(game, 1e-1).iterations == 5
        assert discounted_value(game, 1e-4).iterations == 5

    def test_iterations_stay_small_down_to_1e6(self):
        for game in (big_match().game, random_game(3, 2, 2, seed=11).game, random_game(5, 3, 3, seed=1).game):
            for discount in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                assert discounted_value(game, discount, tol=1e-8).iterations <= 50

    def test_profile_solves_local_games_at_the_value(self):
        # tol * discount = 1e-12 in both cases, so the residual stays below the tolerance
        cases = (
            (random_game(5, 3, 3, seed=1).game, 1e-4, 1e-8),
            (random_game(40, 2, 2, seed=1).game, 0.05, 2e-11),
        )
        for game, discount, tol in cases:
            sol = discounted_value(game, discount, tol=tol)
            local = local_game_tensor(game, discount, sol.value)
            for s in range(game.num_states):
                value, _, _ = support_enumeration_solve(local[s])
                assert value == pytest.approx(sol.value[s], abs=1e-11)
                assert (sol.x.probs[s] @ local[s]).min() >= value - 1e-11
                assert (local[s] @ sol.y.probs[s]).max() <= value + 1e-11

    def test_operator_confirms_small_discount_solve(self):
        # the operator's 2x2 closed form must not cancel when a local game's
        # entries nearly coincide, as they do at small discounts
        game = random_game(3, 2, 2, seed=11).game
        sol = discounted_value(game, 1e-6, tol=1e-8)
        residual = np.abs(shapley_operator(game, 1e-6, sol.value) - sol.value).max()
        assert residual <= 1e-8 * 1e-6

    def test_target_below_rounding_fails_fast(self):
        # tol * discount = 1e-18 cannot be certified in double precision; the
        # iteration cycles and must say so instead of running to its cap
        game = random_game(3, 2, 2, seed=11).game
        with pytest.raises(ConvergenceError) as info:
            discounted_value(game, 1e-6, tol=1e-12, max_iterations=1000)
        assert info.value.residual > 1e-18
        assert info.value.iterations < 1000

    @pytest.mark.parametrize("factor", [1e-9, 1.0, 1e9])
    def test_target_below_rounding_floor_refused_before_the_first_step(self, factor):
        # tol * discount = 1e-18 relative to the payoffs is below 4 * eps * max|g|;
        # 1e-14 relative, as in the solves above, stays above it and certifies
        game = scaled(random_game(3, 2, 2, seed=11).game, factor)
        with pytest.raises(ConvergenceError) as info:
            discounted_value(game, 1e-6, tol=1e-12 * factor, max_iterations=1000)
        assert info.value.iterations == 0
        assert discounted_value(game, 1e-6, tol=1e-8 * factor).residual <= 1e-14 * factor

    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    def test_payoff_scale_equivariance(self, factor):
        tol = 1e-8
        for game in (random_game(3, 2, 2, seed=11).game, random_game(5, 3, 3, seed=1).game):
            for discount in (1e-1, 1e-4):
                base = discounted_value(game, discount, tol=tol).value
                got = discounted_value(scaled(game, factor), discount, tol=tol * factor).value
                np.testing.assert_allclose(got / factor, base, rtol=0, atol=tol)


class TestFiniteValue:
    def test_one_stage_is_one_shot_value(self):
        game = random_game(2, 2, 2, seed=4).game
        sol = finite_value(game, 1)
        expected = [solve_matrix_game(game.payoff[s]).value for s in range(2)]
        np.testing.assert_allclose(sol.values[0], expected, atol=1e-12)

    def test_constant_game_all_horizons(self):
        game = constant_game(-0.7)
        sol = finite_value(game, 12)
        np.testing.assert_allclose(sol.values, -0.7, atol=1e-12)

    def test_matches_independent_recursion_oracle(self):
        game = random_game(2, 2, 2, seed=42).game
        oracle = finite_values_recursion(game, 3)
        got = finite_values(game, 3)
        for m in range(3):
            np.testing.assert_allclose(got[m], oracle[m], atol=1e-9)

    def test_values_only_path_matches_full_solve(self):
        game = random_game(2, 2, 2, seed=12).game
        np.testing.assert_allclose(finite_values(game, 6), finite_value(game, 6).values, atol=1e-10)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (40, 2, 2), (5, 3, 3), (8, 6, 6)])
    def test_values_only_path_is_the_full_solve(self, shape):
        game = random_game(*shape, seed=12).game
        assert np.array_equal(finite_values(game, 50), finite_value(game, 50).values)

    def test_decision_problem_matches_dp_oracle(self):
        game = single_player_mdp().game
        oracle = mdp_finite_values(game, 20)
        got = finite_values(game, 20)
        for m in range(20):
            np.testing.assert_allclose(got[m], oracle[m], atol=1e-12)

    def test_strategy_stage_actions_solve_local_games(self):
        # 8x6x6: most stages are solved on the previous stage's supports
        for shape, n in (((2, 2, 2), 4), ((8, 6, 6), 40)):
            game = random_game(*shape, seed=5).game
            sol = finite_value(game, n)
            v_prev = np.zeros(shape[0])
            for r in range(1, n + 1):
                local = local_game_tensor(game, 1.0 / r, v_prev)
                stage = n - r + 1
                for s in range(shape[0]):
                    guarantee = (sol.x_strategies.at_stage(stage).probs[s] @ local[s]).min()
                    assert guarantee >= sol.values[r - 1][s] - 1e-9
                    ceiling = (local[s] @ sol.y_strategies.at_stage(stage).probs[s]).max()
                    assert ceiling <= sol.values[r - 1][s] + 1e-9
                v_prev = sol.values[r - 1]

    def test_bounded_by_max_payoff(self):
        from stochgame.corpus import CORPUS

        pool = [random_game(2, 2, 2, seed).game for seed in range(20)]
        pool += [ctor().game for ctor in CORPUS.values()]
        for game in pool:
            assert np.abs(finite_values(game, 15)).max() <= game.max_abs_payoff + 1e-12


class TestHorizonChecks:
    """``bool`` is an ``int``, but ``True`` is no horizon."""

    @pytest.mark.parametrize("solve", [finite_values, finite_value])
    def test_bool_horizon_rejected(self, solve):
        with pytest.raises(InputError, match="horizon must be a positive integer"):
            solve(big_match().game, True)


def reference_backward_induction(game, horizon):
    """The backward loop as one public ``solve_batch`` call per stage, hinted by the
    previous stage's strategies: v_1..v_n, and the strategies with r = 1..n stages remaining."""
    v, hint, values, xs, ys = np.zeros(game.num_states), None, [], [], []
    for r in range(1, horizon + 1):
        v, x, y = solve_batch(local_game_tensor(game, 1.0 / r, v), hint)
        hint = x, y
        values.append(v)
        xs.append(x)
        ys.append(y)
    return np.array(values), xs, ys


def same_bytes(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


#: the corpus, and random games of every kernel path: 2x2 closed form, hinted equalizer and
#: simplex, with equal and unequal action counts
PINNED_GAMES = {name: ctor().game for name, ctor in CORPUS.items()} | {
    "x".join(map(str, shape)): random_game(*shape, seed=21).game
    for shape in ((3, 2, 2), (40, 2, 2), (5, 3, 3), (8, 6, 6), (6, 2, 5))
}


class TestSameBytesAsPerStageKernelCalls:
    """On 2x2 games a stage computes only its values, and finite_value solves every stage's
    strategies in one batch; the results stay those of one kernel call per stage."""

    def check(self, game, horizon):
        values, xs, ys = reference_backward_induction(game, horizon)
        assert same_bytes(finite_values(game, horizon), values)
        sol = finite_value(game, horizon)
        assert same_bytes(sol.values, values)
        for strategies, expected in ((sol.x_strategies, xs), (sol.y_strategies, ys)):
            # stage m plays the solution with n - m + 1 stages remaining
            stages = [probs for length, stat in strategies.runs() for probs in [stat.probs] * length]
            assert all(same_bytes(got, want) for got, want in zip(stages, expected[::-1]))
            assert len(stages) == horizon

    @pytest.mark.parametrize("name", sorted(PINNED_GAMES))
    def test_values_and_every_stage_strategy(self, name):
        self.check(PINNED_GAMES[name], 60)

    def test_batch_chunks(self):
        # 2**15 // 40 = 819 stages per kernel call: three chunks, the last one short
        self.check(random_game(40, 2, 2, seed=22).game, 1_700)


class TestExactReference:
    """Rounding error of the n-stage values against exact rational backward induction."""

    @pytest.mark.parametrize("make_game", [big_match, two_state_cycle])
    def test_finite_values_within_1e14_of_exact(self, make_game):
        # measured: 1.6e-15 on the Big Match and 8.9e-16 on the two-state cycle
        game = make_game().game
        error = exact_error(finite_values(game, 400), exact_finite_values(game, 400))
        assert error <= Fraction(1e-14) * Fraction(game.max_abs_payoff)


class TestNStageTable:
    """finite_value leaves its values table on the game; finite_values reads it."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The (game, horizon) of every backward induction run."""
        calls = []
        real = shapley._backward_induction
        monkeypatch.setattr(shapley, "_backward_induction", lambda g, n: calls.append((g, n)) or real(g, n))
        return calls

    @pytest.fixture
    def game(self):
        return random_game(8, 6, 6, seed=3).game

    def test_value_certificate_and_values_run_one_induction(self, game, solves):
        sol = finite_value(game, 150)
        eps = certify_epsilon_optimality(game, (sol.x_strategies, sol.y_strategies), 150)
        table = finite_values(game, 150)
        assert solves == [(game, 150)]
        assert eps <= 1e-9 * game.max_abs_payoff
        assert table.tobytes() == sol.values.tobytes()

    @pytest.mark.parametrize("horizon", [1, 50, 150])
    def test_prefix_is_byte_identical_to_a_fresh_solve(self, game, solves, horizon):
        finite_value(game, 150)
        got = finite_values(game, horizon)
        assert len(solves) == 1
        fresh = finite_values(twin_of(game), horizon)
        assert len(solves) == 2
        assert got.shape == fresh.shape and got.tobytes() == fresh.tobytes()

    def test_longer_horizon_solves_again(self, game, solves):
        short = finite_value(game, 150).values
        long = finite_values(game, 200)
        assert solves == [(game, 150), (game, 200)]
        assert long[:150].tobytes() == short.tobytes()

    def test_only_the_longest_table_is_kept(self, game, solves):
        finite_value(game, 150)
        finite_value(game, 50)
        finite_values(game, 150)
        finite_value(game, 200)
        finite_values(game, 200)
        assert solves == [(game, 150), (game, 50), (game, 200)]
        assert game._n_stage_table.shape == (200, game.num_states)
        assert not game._n_stage_table.flags.writeable

    def test_returned_tables_are_writable_copies(self, game):
        sol = finite_value(game, 150)
        table = finite_values(game, 100)
        expected = table.copy()
        table[:] = 0.0
        sol.values[:] = 0.0
        assert finite_values(game, 100).tobytes() == expected.tobytes()

    def test_certificates_alone_keep_no_table(self, game, solves):
        sol = discounted_value(game, 0.1)
        guaranteed_value(game, sol.x, 40)
        certify_epsilon_optimality(game, (sol.x, sol.y), 40)
        assert solves == [(game, 40)]
        assert len(game._n_stage_table) == 0

    def test_twin_game_solves_again(self, game, solves):
        finite_value(game, 150)
        twin = twin_of(game)
        assert twin == game
        finite_values(twin, 150)
        assert [g for g, _ in solves] == [game, twin] and solves[1][0] is twin


class TestNonFiniteResults:
    """A solve that overflows the double range raises instead of returning inf or nan."""

    @pytest.fixture
    def huge(self):
        return scaled(big_match().game, 1e307)

    def test_finite_values(self, huge):
        with np.errstate(all="ignore"), pytest.raises(InputError, match="not finite"):
            finite_values(huge, 1)

    def test_finite_value(self, huge):
        with np.errstate(all="ignore"), pytest.raises(InputError, match="not finite"):
            finite_value(huge, 3)
        assert len(huge._n_stage_table) == 0

    def test_shapley_operator(self, huge):
        with np.errstate(all="ignore"), pytest.raises(InputError, match="not finite"):
            shapley_operator(huge, 0.5, np.zeros(huge.num_states))


class TestKernelHints:
    """Each backward-induction stage and each strategy-iteration step hints the
    next one's supports, so the simplex runs only where an optimal support changes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_backward_induction(self, seed, simplex_calls):
        finite_values(random_game(8, 6, 6, seed=seed).game, 150)
        assert len(simplex_calls) <= 32  # of 1,200 local games

    @pytest.mark.parametrize("seed", range(4))
    def test_strategy_iteration(self, seed, simplex_calls):
        discounted_value(random_game(8, 6, 6, seed=seed).game, 1e-3)
        assert len(simplex_calls) <= 16  # the first step's 8 local games, and a few more


class TestLimitValue:
    def test_constant_game_zero_dispersion(self):
        game = constant_game(0.25)
        est = limit_value_estimate(game, [1e-1, 1e-2, 1e-3], tol=1e-10)
        np.testing.assert_allclose(est.value, 0.25, atol=1e-9)
        assert est.dispersion <= 1e-9

    def test_big_match_limit_half(self):
        est = limit_value_estimate(big_match().game, [1e-1, 1e-2, 1e-3])
        oracle = bisection_big_match_discounted(1e-3)
        assert est.value[0] == pytest.approx(oracle, abs=1e-3)
        assert est.value[0] == pytest.approx(0.5, abs=1e-3)

    def test_absorbing_only_game_matches_per_state_one_shot_values(self):
        # every state absorbing: the limit value is each state's one-shot value
        rng = np.random.default_rng(3)
        payoff = rng.uniform(-1, 1, (3, 2, 2))
        transition = np.zeros((3, 2, 2, 3))
        for s in range(3):
            transition[s, :, :, s] = 1.0
        game = StochasticGame(
            ("s0", "s1", "s2"), ("a0", "a1"), ("b0", "b1"), payoff, transition
        )
        est = limit_value_estimate(game, [1e-1, 1e-2, 1e-3], tol=1e-12)
        expected = [solve_matrix_game(payoff[s]).value for s in range(3)]
        np.testing.assert_allclose(est.value, expected, atol=1e-9)
        assert est.dispersion <= 1e-10

    def test_grid_preconditions(self):
        game = constant_game(0.0)
        with pytest.raises(InputError):
            limit_value_estimate(game, [1e-3, 1e-2])  # increasing
        with pytest.raises(InputError):
            limit_value_estimate(game, [1e-1, 1e-2])  # does not reach 1e-3
