import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochgame import InputError, solve_batch, solve_matrix_game

from oracles import support_enumeration_solve, support_enumeration_value


def random_matrix(rng, max_side=4, span=5.0):
    m, n = rng.integers(1, max_side + 1, size=2)
    return rng.uniform(-span, span, size=(m, n))


def value_only(matrix) -> float:
    """The batched kernel's value of one matrix, as a one-item stack."""
    return float(solve_batch(np.asarray(matrix, dtype=float)[None])[0][0])


class TestSolve:
    def test_matching_pennies(self):
        sol = solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
        oracle_value, oracle_x, oracle_y = support_enumeration_solve([[1, -1], [-1, 1]])
        assert sol.value == pytest.approx(oracle_value, abs=1e-12)
        np.testing.assert_allclose(sol.row_strategy, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.col_strategy, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(oracle_x, [0.5, 0.5], atol=1e-9)

    def test_single_entry_matrix(self):
        sol = solve_matrix_game([[3.25]])
        assert sol.value == 3.25
        assert sol.row_strategy.tolist() == [1.0]
        assert sol.col_strategy.tolist() == [1.0]

    def test_asymmetric_2x2_against_support_oracle(self):
        M = [[3.0, 1.0], [1.0, 2.0]]
        sol = solve_matrix_game(M)
        value, x, y = support_enumeration_solve(M)
        # closed form: value 5/3, both strategies (1/3, 2/3)
        assert value == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert sol.value == pytest.approx(value, abs=1e-10)
        np.testing.assert_allclose(sol.row_strategy, x, atol=1e-9)
        np.testing.assert_allclose(sol.col_strategy, y, atol=1e-9)

    def test_guarantees_hold_within_certificate_gap(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            M = random_matrix(rng)
            sol = solve_matrix_game(M)
            assert sol.certificate_gap <= 1e-9 * max(1.0, np.abs(M).max())
            assert (sol.row_strategy @ M).min() >= sol.value - sol.certificate_gap - 1e-15
            assert (M @ sol.col_strategy).max() <= sol.value + sol.certificate_gap + 1e-15

    def test_strategies_are_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sol = solve_matrix_game(random_matrix(rng))
            for strat in (sol.row_strategy, sol.col_strategy):
                assert strat.min() >= -1e-12
                assert abs(strat.sum() - 1.0) <= 1e-12

    def test_non_finite_entry_rejected(self):
        with pytest.raises(InputError, match="not finite"):
            solve_matrix_game([[1.0, np.inf]])
        with pytest.raises(InputError):
            solve_batch([[[np.nan]]])

    def test_deterministic_re_solve(self):
        M = np.random.default_rng(7).uniform(-2, 2, (4, 4))
        a = solve_matrix_game(M)
        b = solve_matrix_game(M.copy())
        assert a.value == b.value
        assert np.array_equal(a.row_strategy, b.row_strategy)
        assert np.array_equal(a.col_strategy, b.col_strategy)


class TestValueOnly:
    def test_dominant_row_value_is_row_minimum(self):
        # row 0 dominates row 1 entrywise, so the value is row 0's minimum
        M = np.array([[4.0, 2.0, 3.0], [1.0, 0.5, 2.5]])
        assert (M[0] >= M[1]).all()
        assert value_only(M) == pytest.approx(M[0].min(), abs=1e-12)
        assert value_only(M) == pytest.approx(support_enumeration_value(M), abs=1e-9)

    def test_zero_matrix(self):
        assert value_only(np.zeros((3, 2))) == 0.0

    def test_agrees_with_full_solve_on_seeded_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            M = random_matrix(rng)
            assert abs(value_only(M) - solve_matrix_game(M).value) <= 1e-12

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(-3, 3, size=(40, 2, 2))
        batch = solve_batch(stack)[0]
        for k in range(40):
            assert batch[k] == pytest.approx(value_only(stack[k]), abs=1e-13)

    def test_batch_general_shape(self):
        rng = np.random.default_rng(6)
        stack = rng.uniform(-3, 3, size=(10, 3, 4))
        batch = solve_batch(stack)[0]
        for k in range(10):
            assert batch[k] == pytest.approx(value_only(stack[k]), abs=1e-10)


class TestSolveBatch:
    @staticmethod
    def check(stack, oracle_stack, scale=1.0):
        """Each item against support enumeration on the unscaled matrix."""
        values, xs, ys = solve_batch(stack)
        assert values.shape == (len(stack),)
        assert xs.shape == stack.shape[:2] and ys.shape == (len(stack), stack.shape[2])
        tol = 1e-12 * scale
        for M, oracle_M, value, x, y in zip(stack, oracle_stack, values, xs, ys):
            assert abs(value - scale * support_enumeration_value(oracle_M)) <= tol
            for strat in (x, y):
                assert strat.min() >= -1e-15
                assert abs(strat.sum() - 1.0) <= 1e-15
            assert (x @ M).min() >= value - tol
            assert (M @ y).max() <= value + tol

    def test_2x2_uniform(self):
        stack = np.random.default_rng(31).uniform(-1.0, 1.0, size=(300, 2, 2))
        self.check(stack, stack)

    def test_2x2_saddles_ties_and_constants(self):
        # small integer entries: pure saddles, tied rows and columns, constant matrices
        stack = np.random.default_rng(32).integers(-1, 2, size=(300, 2, 2)).astype(float)
        assert any((M == M[0, 0]).all() for M in stack)
        self.check(stack, stack)

    @pytest.mark.parametrize("shape", [(3, 4), (6, 6)])
    def test_general_shapes(self, shape):
        stack = np.random.default_rng(33).uniform(-1.0, 1.0, size=(30, *shape))
        self.check(stack, stack)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e6, 1e9])
    def test_2x2_payoff_scale(self, scale):
        stack = np.random.default_rng(34).uniform(-1.0, 1.0, size=(300, 2, 2))
        self.check(scale * stack, stack, scale)

    def test_stack_must_be_three_dimensional(self):
        with pytest.raises(InputError, match="stack"):
            solve_batch(np.zeros((2, 2)))


class TestInvariants:
    def test_value_is_lipschitz_in_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m, n = rng.integers(1, 5, size=2)
            A = rng.uniform(-4, 4, (m, n))
            B = rng.uniform(-4, 4, (m, n))
            sol_a = solve_matrix_game(A)
            sol_b = solve_matrix_game(B)
            bound = np.abs(A - B).max() + sol_a.certificate_gap + sol_b.certificate_gap
            assert abs(sol_a.value - sol_b.value) <= bound + 1e-12

    @given(
        matrix=arrays(np.float64, (3, 3), elements=st.floats(-5, 5)),
        alpha=st.floats(0.1, 10.0),
        beta=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_shift_scale_equivariance(self, matrix, alpha, beta):
        base = solve_matrix_game(matrix)
        shifted = solve_matrix_game(alpha * matrix + beta)
        assert shifted.value == pytest.approx(alpha * base.value + beta, abs=1e-10)
        # the shifted solve's strategies stay optimal for the original matrix
        tol = (shifted.certificate_gap + 1e-10) / alpha
        assert (shifted.row_strategy @ matrix).min() >= base.value - base.certificate_gap - tol
        assert (matrix @ shifted.col_strategy).max() <= base.value + base.certificate_gap + tol

    def test_duality_bracket(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            M = random_matrix(rng)
            sol = solve_matrix_game(M)
            row_guarantee = (sol.row_strategy @ M).min()
            col_guarantee = (M @ sol.col_strategy).max()
            assert row_guarantee <= sol.value + sol.certificate_gap
            assert col_guarantee >= sol.value - sol.certificate_gap


class TestPayoffScale:
    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e6, 1e9])
    def test_scaled_solve_matches_support_enumeration(self, scale):
        # the oracle solves the unscaled matrix, so its tolerance stays meaningful
        rng = np.random.default_rng(29)
        for _ in range(100):
            M = rng.uniform(-1.0, 1.0, size=(3, 3))
            sol = solve_matrix_game(scale * M)
            oracle = support_enumeration_value(M)
            assert abs(sol.value / scale - oracle) <= 1e-12
            assert (sol.row_strategy @ M).min() >= oracle - 1e-12
            assert (M @ sol.col_strategy).max() <= oracle + 1e-12
            assert sol.certificate_gap <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_duality_bracket_many_draws(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(2000):
            M = random_matrix(rng)
            sol = solve_matrix_game(M)
            assert (sol.row_strategy @ M).min() <= sol.value + sol.certificate_gap
            assert (M @ sol.col_strategy).max() >= sol.value - sol.certificate_gap
