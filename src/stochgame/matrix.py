"""Exact solver for one-shot zero-sum matrix games.

The LP route follows the classical normalization, made scale-free: map the
matrix affinely onto ``(M - min M) / (max M - min M) + 1`` (a span of 1 is
used when every entry is equal), so the entries lie in [1, 2] whatever the
payoff scale, then solve the column player's packed program

    max sum(w)  subject to  N w <= 1,  w >= 0

with a dense full-tableau simplex, and map the value back.  Because the
normalized entries are bounded, the pivot tolerance is one constant.  The
slack basis is feasible from the start, so no phase-1 is needed, and Bland's
rule (smallest eligible index enters, ratio ties broken by smallest basis
label) guarantees termination.  The row player's strategy is read off the
optimal dual prices, i.e. the reduced costs of the slack columns.  Pivoting
is deterministic, so identical input produces bit-identical output.

Every solution carries a certificate computed on the original matrix from
the returned strategies alone: the larger distance from the value to the
row strategy's guaranteed floor and to the column strategy's guaranteed
ceiling.

Matrices here are tiny (a few actions per player), which is why a robust
dense tableau beats anything asymptotically clever.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: reduced-cost and ratio-test threshold; normalized entries lie in [1, 2]
_PIVOT_TOL = 1e-11
#: hard iteration cap; unreachable with Bland's rule on these sizes
_MAX_PIVOTS = 100_000


@dataclass(frozen=True, eq=False)
class MatrixGameSolution:
    """Value plus one optimal mixed strategy per player.

    ``certificate_gap`` is computed from the returned strategies themselves:
    the larger of ``|value - row guarantee|`` and ``|col guarantee - value|``,
    where each guarantee is the worst pure response to that strategy.  The
    optimality claim can be checked without trusting solver internals.
    """

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    certificate_gap: float


def _as_matrix(matrix) -> np.ndarray:
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InputError("matrix must be 2-dimensional with at least one row and column")
    if not np.isfinite(M).all():
        i, j = np.unravel_index(int(np.argmin(np.isfinite(M))), M.shape)
        raise InputError(f"matrix entry at ({i}, {j}) is not finite")
    return M


def _simplex_core(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve max sum(w) s.t. M w <= 1, w >= 0 for M with entries in [1, 2].

    Returns (objective, w, dual prices).  Boundedness holds because every
    row of M dominates the all-ones row.
    """
    m, n = M.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[0, :n] = -1.0
    tableau[1:, :n] = M
    tableau[1:, n : n + m] = np.eye(m)
    tableau[1:, -1] = 1.0
    basis = list(range(n, n + m))

    for _ in range(_MAX_PIVOTS):
        reduced = tableau[0, :-1]
        eligible = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if eligible.size == 0:
            break
        enter = int(eligible[0])  # Bland: smallest variable index enters
        column = tableau[1:, enter]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise ArithmeticError("unbounded matrix-game LP; input was not shifted")
        ratios = tableau[1 + rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios == best]
        leave = int(min(ties, key=lambda r: basis[r]))  # Bland tie-break
        pivot_row = tableau[1 + leave] / tableau[1 + leave, enter]
        tableau -= np.outer(tableau[:, enter], pivot_row)
        tableau[1 + leave] = pivot_row
        basis[leave] = enter
    else:
        raise ArithmeticError("simplex failed to terminate")

    w = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            w[var] = tableau[1 + row, -1]
    duals = np.maximum(tableau[0, n : n + m], 0.0)
    objective = float(tableau[0, -1])
    return objective, np.maximum(w, 0.0), duals


def solve_matrix_game(matrix) -> MatrixGameSolution:
    """Value and one optimal mixed strategy per player, via the simplex LP."""
    M = _as_matrix(matrix)
    low = float(M.min())
    span = float(M.max()) - low or 1.0
    objective, w, duals = _simplex_core((M - low) / span + 1.0)
    value = low + span * (1.0 / objective - 1.0)
    row_strategy = duals / duals.sum()
    col_strategy = w / w.sum()
    row_guarantee = float((row_strategy @ M).min())
    col_guarantee = float((M @ col_strategy).max())
    gap = max(abs(value - row_guarantee), abs(col_guarantee - value))
    return MatrixGameSolution(value, row_strategy, col_strategy, gap)


def value_only(matrix) -> float:
    """Game value without strategy extraction: :func:`value_batch` on one matrix."""
    return float(value_batch(_as_matrix(matrix)[None])[0])


def value_batch(tensors: np.ndarray) -> np.ndarray:
    """Values of a stack of matrices, shape (batch, rows, cols) -> (batch,).

    Vectorizes the saddle test and the 2x2 closed form across the batch;
    only matrices needing it hit the per-item simplex.  This is the inner
    kernel of backward induction, so it has to stay allocation-light.
    """
    L = np.asarray(tensors, dtype=float)
    if L.ndim != 3:
        raise InputError("expected a (batch, rows, cols) stack of matrices")
    maxmin = L.min(axis=2).max(axis=1)
    minmax = L.max(axis=1).min(axis=1)
    values = maxmin.copy()
    mixed = maxmin != minmax
    if not mixed.any():
        return values
    if L.shape[1:] == (2, 2):
        a = L[:, 0, 0]
        b = L[:, 0, 1]
        c = L[:, 1, 0]
        d = L[:, 1, 1]
        # (ad - bc) / (a + d - b - c) in shift-invariant form: no cancellation
        # when the entries nearly coincide
        ab, ac = a - b, a - c
        denom = ab + (d - c)
        safe = mixed & (denom != 0.0)
        values[safe] = a[safe] - ab[safe] * ac[safe] / denom[safe]
        mixed = mixed & ~safe
    for idx in np.nonzero(mixed)[0]:
        values[idx] = solve_matrix_game(L[idx]).value
    return values
