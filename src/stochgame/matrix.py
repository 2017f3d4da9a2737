"""Exact solver for one-shot zero-sum matrix games.

:func:`solve_batch` solves stacks of local games; each item takes the first
path that applies: a pure saddle point, read off with pure strategies; on
2x2 stacks, the Shapley & Snow (1950) closed form with its equalizing
strategies; given a hint, the Shapley & Snow basic solution on the hinted
supports; otherwise :func:`solve_matrix_game`, the simplex below.

A hint is the strategies of a neighbouring stack, such as the previous stage
of backward induction.  Items whose hinted supports have equal size are
solved as square equalizer systems in one stacked ``np.linalg.solve``, and
accepted only with nonnegative strategies and a certificate gap of at most
:data:`_KERNEL_GAP` in normalized units; the rest fall back to the simplex,
so a hint can cost time but not accuracy.  A simplex item whose certificate
gap exceeds :data:`_SIMPLEX_GAP` of its entry span raises ``ConvergenceError``.

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
dense tableau beats anything asymptotically clever on the items no hint settles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError

#: reduced-cost and ratio-test threshold; normalized entries lie in [1, 2]
_PIVOT_TOL = 1e-11
#: hard iteration cap; unreachable with Bland's rule on these sizes
_MAX_PIVOTS = 100_000
#: largest certificate gap, in normalized units, at which a hinted solution is accepted
_KERNEL_GAP = 1e-12
#: largest simplex certificate gap in a stack, relative to the item's entry span
_SIMPLEX_GAP = 1e-9


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


def _as_matrix(matrix, ndim: int = 2) -> np.ndarray:
    """``matrix`` as a float array, checked: a matrix, or with ``ndim=3`` a stack of them."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != ndim or 0 in M.shape[-2:]:
        shape = "a (batch, rows, cols) stack" if ndim == 3 else "2-dimensional"
        raise InputError(f"matrix must be {shape} with at least one row and column")
    if np.count_nonzero(np.isfinite(M)) != M.size:  # half the cost of .all() on small stacks
        index = np.unravel_index(int(np.argmin(np.isfinite(M))), M.shape)
        raise InputError(f"matrix entry at ({', '.join(map(str, index))}) is not finite")
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


def _hinted(L: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Mask of the items solved on their nonempty, equal-size hinted supports (boolean
    ``rows``, ``cols``), and their values and strategies; ``LinAlgError`` if one is singular."""
    size = rows.sum(axis=1)
    hit = (size > 0) & (size == cols.sum(axis=1))
    L, on = L[hit], np.concatenate([rows[hit], cols[hit]], axis=1)
    b, m, n = L.shape
    low = L.min(axis=(1, 2))
    span = L.max(axis=(1, 2)) - low  # positive: a constant matrix is a saddle
    N = (L - low[:, None, None]) / span[:, None, None]
    # unknowns (x, y, v_row, v_col): N[i] y = v_col for i in the row support and
    # x N[:, j] = v_row for j in the column support, the strategy entries off the
    # supports are zero, and each strategy sums to one
    A = np.zeros((b, m + n + 2, m + n + 2))
    A[:, :m, m:-2], A[:, m:-2, :m] = N, N.transpose(0, 2, 1)
    A[:, :m, -1] = A[:, m:-2, -2] = -1.0
    A[:, :-2] *= on[:, :, None]
    A[:, :-2, :-2] += ~on[:, :, None] * np.eye(m + n)
    A[:, -2, :m] = A[:, -1, m:-2] = 1.0
    rhs = (np.arange(m + n + 2) >= m + n) * 1.0
    z = np.linalg.solve(A, rhs[None, :, None])[..., 0]
    # exact zeros off the supports, so the next hint's supports do not grow
    xy, v = np.where(on, z[:, :-2], 0.0), z[:, -2]
    x, y = xy[:, :m], xy[:, m:]
    gap = np.maximum(v - np.einsum("bi,bij->bj", x, N).min(axis=1), np.einsum("bij,bj->bi", N, y).max(axis=1) - v)
    ok = (xy >= 0.0).all(axis=1) & (gap <= _KERNEL_GAP)
    hit[hit] = ok
    return hit, low[ok] + span[ok] * v[ok], x[ok], y[ok]


def solve_batch(stack, hint=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and optimal strategies of a stack of matrix games.

    ``stack`` has shape (batch, rows, cols); returns the values (batch,), the
    row strategies (batch, rows) and the column strategies (batch, cols).
    ``hint`` is None or such a pair for a neighbouring stack (see the module
    docstring).  It validates, then runs the allocation-light kernel that the
    library's own local games, over a validated game and finite values, call directly.
    """
    L = _as_matrix(stack, ndim=3)
    if hint is not None and (  # getattr: np.shape would double this check's cost per call
        len(hint) != 2 or getattr(hint[0], "shape", None) != L.shape[:2]
        or getattr(hint[1], "shape", None) != (len(L), L.shape[2])
    ):
        raise InputError("hint must be a pair of (batch, rows) and (batch, cols) strategy arrays")
    return _solve_batch(L, hint)


def _solve_batch(L: np.ndarray, hint=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if L.shape[1:] == (2, 2):
        # elementwise: reductions over length-2 axes cost several times more than np.minimum
        a, b, c, d = L[:, 0, 0], L[:, 0, 1], L[:, 1, 0], L[:, 1, 1]
        row0, row1, col0, col1 = np.minimum(a, b), np.minimum(c, d), np.maximum(a, c), np.maximum(b, d)
        values = np.maximum(row0, row1)
        mixed = values != np.minimum(col0, col1)
        # No saddle means both entries of one diagonal exceed both of the other: a - b, d - c,
        # a - c and d - b share one strict sign, so no denominator vanishes where mixed.
        ab, ac, dc, db = a - b, a - c, d - c, d - b
        denom = ab + dc
        # (ad - bc) / (a + d - b - c) in shift-invariant form: no cancellation
        # when the entries nearly coincide
        shift = np.divide(ab * ac, denom, out=np.zeros_like(a), where=mixed)
        np.subtract(a, shift, out=values, where=mixed)
        x0 = np.divide(dc, denom, out=(row0 >= row1) * 1.0, where=mixed)
        y0 = np.divide(db, ac + db, out=(col0 <= col1) * 1.0, where=mixed)
        return values, np.array([x0, 1.0 - x0]).T, np.array([y0, 1.0 - y0]).T
    row_min, col_max = L.min(axis=2), L.max(axis=1)
    values = row_min.max(axis=1)
    # at a saddle: the first row attaining max(row minima), the first column min(column maxima)
    xs = (np.arange(L.shape[1]) == row_min.argmax(axis=1)[:, None]) * 1.0
    ys = (np.arange(L.shape[2]) == col_max.argmin(axis=1)[:, None]) * 1.0
    todo = np.nonzero(values != col_max.min(axis=1))[0]
    if hint is not None and todo.size:
        try:
            hit, *solved = _hinted(L[todo], hint[0][todo] > 0, hint[1][todo] > 0)
        except np.linalg.LinAlgError:  # a singular hinted support: every hinted item falls back
            pass
        else:
            values[todo[hit]], xs[todo[hit]], ys[todo[hit]] = solved
            todo = todo[~hit]
    for k in todo:
        sol = solve_matrix_game(L[k])
        gap, span = sol.certificate_gap, float(np.ptp(L[k]))  # span > 0: constant items are saddles
        if not gap <= _SIMPLEX_GAP * span:
            raise ConvergenceError(f"stack item {k}: simplex certificate gap {gap:.3g} > "
                                   f"{_SIMPLEX_GAP:g} of the entry span {span:.3g}", gap, 0)
        values[k], xs[k], ys[k] = sol.value, sol.row_strategy, sol.col_strategy
    return values, xs, ys
