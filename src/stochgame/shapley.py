"""Shapley operator and the three value computations.

* discounted values with optimal stationary profiles (Hoffman-Karp strategy
  iteration, whose number of steps does not grow as the discount shrinks),
* finite-horizon values with optimal Markov strategies (backward induction),
* limit-value estimation along a decreasing discount grid.

The discounted stage weight ``discount`` multiplies the current payoff and
``1 - discount`` the continuation, so the total payoff is the Abel mean of
the stage payoffs.  The n-stage recursion uses stage weight 1/r when r
stages remain, which evaluates the Cesaro mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .game import MarkovStrategy, StationaryStrategy, StochasticGame, _check_horizon, _freeze
from .matrix import _solve_batch, _value_2x2

#: Player 2's policy switches only on a gain above this share of max|g|, so
#: rounding ties cannot make policy iteration cycle
_SWITCH_TOL = 1e-12
#: a target tol * discount below this share of max|g| is refused: rounding can keep it out of reach
_ROUNDING_FLOOR = 4 * np.finfo(float).eps
#: a backward recursion stops once its increments' span is at most this share of max|g| (~450 eps,
#: the rounding of r * v_r at the r = 16..64 where random games' spans close)
_AFFINE_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class DiscountedSolution:
    """Fixed point of the discounted Shapley operator plus optimal profile.

    ``residual`` is the sup-norm of (operator applied to value) - value,
    measured by the same local-game solves that give the returned strategies;
    it is the certificate on which the solve stopped.  ``iterations`` counts
    Shapley applications plus policy-evaluation solves, the unit of
    ``max_iterations``.
    """

    discount: float
    value: np.ndarray
    x: StationaryStrategy
    y: StationaryStrategy
    residual: float
    iterations: int = 0


@dataclass(frozen=True, eq=False)
class FiniteHorizonSolution:
    """Backward-induction values v_1..v_n and optimal Markov strategies.

    ``values[m - 1]`` is the value of the m-stage game (per state); the
    stage-m mixed actions of the returned strategies are optimal in the
    local one-shot game with n - m + 1 stages remaining.
    """

    horizon: int
    values: np.ndarray
    x_strategies: MarkovStrategy
    y_strategies: MarkovStrategy


@dataclass(frozen=True, eq=False)
class LimitValueEstimate:
    """Discounted value at the smallest grid point, with a dispersion bar.

    ``dispersion`` is the largest sup-norm gap between consecutive grid
    solutions; callers should treat it as the error bar on the limit value.
    """

    value: np.ndarray
    dispersion: float
    discounts: tuple[float, ...]


def local_game_tensor(game: StochasticGame, discount: float, continuation: np.ndarray) -> np.ndarray:
    """Per-state one-shot matrices: discount * payoff + (1-discount) * E[continuation]."""
    shape = game.payoff.shape
    cont = (game.transition.reshape(-1, shape[0]) @ continuation).reshape(shape)
    return discount * game.payoff + (1.0 - discount) * cont


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise InputError("values are not finite: the payoffs are too large for double precision")
    return values


def _check_discount(discount: float) -> float:
    discount = float(discount)
    if not 0.0 < discount <= 1.0:
        raise InputError(f"discount must lie in (0, 1], got {discount!r}")
    return discount


def shapley_operator(game: StochasticGame, discount: float, values) -> np.ndarray:
    """One application of the discounted minimax backup to ``values``."""
    discount = _check_discount(discount)
    v = np.asarray(values, dtype=float)
    if v.shape != (game.num_states,) or not np.isfinite(v).all():
        raise InputError("values must be a finite vector over the game's states")
    return _finite(_solve_batch(local_game_tensor(game, discount, v))[0])


def default_iteration_cap(game: StochasticGame, discount: float, tol: float) -> int:
    """Work budget of :func:`discounted_value`: value-iteration sweeps to tol * discount.

    This many Shapley sweeps from ``v0 = min g`` reach residual
    ``tol * discount``, because the distance to the fixed point, at most
    ``2 max|g|`` at the start, shrinks by ``1 - discount`` per sweep.  The
    bound stays valid for strategy iteration by monotone dominance: started
    from the same ``v0`` its iterates rise and satisfy ``v_k >= T^k v0``, so
    it needs no more outer steps than value iteration needs sweeps.  The
    policy-evaluation solves are charged against the same budget: on the
    corpus and 160 random games up to 8x6x6 and 40x2x2, at discounts from 1
    down to 1e-6, a solve used at most 0.75 of it (3 of 4 at discount 1).
    """
    gmax = game.max_abs_payoff
    target = tol * discount
    if discount >= 1.0 or gmax == 0.0 or target >= 2.0 * gmax:
        return 4
    return math.ceil(math.log(target / (2.0 * gmax)) / math.log1p(-discount)) + 16


def discounted_value(
    game: StochasticGame,
    discount: float,
    tol: float = 1e-8,
    max_iterations: int | None = None,
) -> DiscountedSolution:
    """Discounted value and optimal stationary profile, by strategy iteration.

    Hoffman-Karp strategy iteration from ``v = min g``.  Each outer step
    solves the local games at ``v``, which gives Player 1's strategy x,
    Player 2's strategy y and the Shapley image T(v).  If
    ``|T(v) - v| <= tol * discount`` the step returns; by the contraction
    factor ``1 - discount`` this bounds the distance to the fixed point by
    ``tol`` uniformly in the discount.  Otherwise x is held fixed and
    Player 2's discounted MDP against it is solved exactly by policy
    iteration, which becomes the next ``v``.  Every Shapley application and
    every policy-evaluation solve counts as one iteration against
    ``max_iterations`` (default :func:`default_iteration_cap`).  Running out,
    or returning to an earlier ``v``, raises :class:`ConvergenceError` with
    the last residual; so does, before the first step, a ``tol * discount``
    below ``4 * eps * max|g|``, which rounding can keep out of reach.
    """
    discount = _check_discount(discount)
    if not tol > 0.0:
        raise InputError("tol must be positive")
    if not math.isfinite(tol):
        raise InputError("tol must be finite")
    ns = game.num_states
    target = tol * discount
    if target < _ROUNDING_FLOOR * game.max_abs_payoff:
        raise ConvergenceError(f"tol*discount {target:.3e} is below the rounding floor 4*eps*max|g|", math.inf, 0)
    cap = (default_iteration_cap(game, discount, tol) if max_iterations is None
           else _check_horizon(max_iterations, "max_iterations"))
    tie = _SWITCH_TOL * game.max_abs_payoff
    states = np.arange(ns)
    eye = np.eye(ns)

    v = np.full(ns, float(game.payoff.min()))
    residual = math.inf
    iterations = 0
    # the steps are deterministic, so a repeated iterate would cycle until the cap
    seen: set[bytes] = set()
    hint = None
    while iterations < cap and v.tobytes() not in seen:
        seen.add(v.tobytes())
        iterations += 1
        # the previous outer step's strategies hint the local games' supports
        applied, xs, ys = _solve_batch(local_game_tensor(game, discount, v), hint)
        hint = xs, ys
        residual = float(np.abs(applied - v).max())
        if residual <= target:  # false for a non-finite T(v): no overflowed value returns
            x, y = StationaryStrategy(xs), StationaryStrategy(ys)
            return DiscountedSolution(discount, v, x, y, residual, iterations)

        # Player 2's MDP against x, per (state, column); policy iteration from
        # the greedy reply to T(v)
        reward = np.einsum("si,sij->sj", xs, game.payoff)
        kernel = np.einsum("si,sijt->sjt", xs, game.transition)

        def lookahead(w):
            return discount * reward + (1.0 - discount) * (kernel @ w)

        policy = lookahead(applied).argmin(axis=1)
        while iterations < cap:
            iterations += 1
            # lam*I + (1-lam)*(I-P) rather than I - (1-lam)*P: absorbing rows stay exact
            outflow = eye - kernel[states, policy]
            v = np.linalg.solve(discount * eye + (1.0 - discount) * outflow, discount * reward[states, policy])
            q = lookahead(v)
            best = q.argmin(axis=1)
            switch = q[states, best] < q[states, policy] - tie
            if not switch.any():
                break
            policy = np.where(switch, best, policy)
    reason = "" if iterations >= cap else " (iterate repeated)"
    raise ConvergenceError(
        f"discounted strategy iteration at discount {discount} stopped after "
        f"{iterations} iterations{reason} with residual {residual:.3e} > {target:.3e}",
        residual=residual,
        iterations=iterations,
    )


def _closed_increment(level: np.ndarray, previous: np.ndarray, remaining: int, scale: float):
    """The midpoint (a + b) / 2 of the increment X_k - X_{k-1} in [a, b], X_k = k * level with
    k = ``remaining`` and X_{k-1} from ``previous``, if b - a <= ``_AFFINE_TOL * scale``, else None.
    The recursions are monotone and commute with adding a constant, so then every later increment
    of the same operator lies in [a, b] too."""
    delta = remaining * level - (remaining - 1) * previous
    low, high = delta.min(), delta.max()
    return (low + high) / 2 if high - low <= _AFFINE_TOL * scale else None  # NaN never closes


def _affine_fill(rows: np.ndarray, steps: np.ndarray, level: np.ndarray, remaining: int, mid: float) -> None:
    """Fill ``rows[i]`` in place with (X_k + j * mid) / (k + j), the level of k + j stages for
    j = ``steps[i]``, X_k = k * level with k = ``remaining``: each row depends on its j alone, and
    no temporary is as large as ``rows``."""
    rows[:] = remaining * level
    rows += (steps * mid)[:, None]
    rows /= (steps + remaining)[:, None]


def _backward_induction(game: StochasticGame, horizon: int):
    """Solve v_1..v_n, yielding the local games and both players' optimal local strategies after each
    stage r solved (on 2x2 games, whose closed form takes no hint, only the values: None).  The span rule
    runs at r = 1, 2, 4, ... short of n; once it closes, r is the last stage.  At the end the rows
    solved become the game's n-stage cache if they are longer than the kept rows or their span closed."""
    values, v, hint, mid = [], np.zeros(game.num_states), None, None
    for r in range(1, horizon + 1):
        local = local_game_tensor(game, 1.0 / r, v)
        if local.shape[1:] == (2, 2):
            v = _value_2x2(local)[0]
        else:  # the previous stage's strategies hint this stage's supports
            v, *hint = _solve_batch(local, hint)
        if r < horizon and not r & (r - 1):
            mid = _closed_increment(v, values[-1] if values else 0.0, r, game.max_abs_payoff)
        values.append(v)
        yield local, hint
        if mid is not None:
            break
    if mid is not None or r > len(game._n_stage_cache[0]):  # a closed span serves every horizon
        object.__setattr__(game, "_n_stage_cache", (_freeze(np.array(values)), mid))


def _value_rows(game: StochasticGame, horizon: int, first: int = 1) -> np.ndarray:
    """Rows ``first``..n of v_1..v_n, fresh, from the game's n-stage cache (solved first if it neither closed
    nor covers n); rows k past a close at r are (r * v_r + (k - r) * mid) / k elementwise, as a fresh solve."""
    rows, mid = game._n_stage_cache
    if mid is None and len(rows) < horizon:
        for _ in _backward_induction(game, horizon):
            pass
        rows, mid = game._n_stage_cache
    head = rows[first - 1 : horizon]
    out = np.empty((horizon - first + 1, game.num_states))
    out[: len(head)] = head
    if len(head) < len(out):  # the span closed at r = len(rows) < n: fill rows first + len(head)..n
        r = len(rows)
        _affine_fill(out[len(head) :], np.arange(first + len(head) - r, horizon - r + 1.0), rows[-1], r, mid)
    return _finite(out)


def finite_values(game: StochasticGame, horizon: int) -> np.ndarray:
    """Values v_1..v_n of the 1..n stage games, shape (n, states).

    The values of :func:`finite_value` without the strategies.  Every backward induction keeps the
    rows it solved on the game, and this call, :func:`finite_value`'s values and both certificates
    read them: a closed span serves every horizon; an open one keeps the longest table solved.

    Stages are solved until the increments r * v_r - (r - 1) * v_{r-1}, checked at r = 1, 2, 4, ...,
    span at most ``_AFFINE_TOL * max|g|``; the later rows are then v_k = (r * v_r + (k - r) * mid) / k,
    mid the increments' midpoint (on random games r = 16..64).  Where the limit value depends on the
    state (the Big Match, absorbing states) the span never closes and every stage is solved.
    """
    return _value_rows(game, _check_horizon(horizon))


def finite_value(game: StochasticGame, horizon: int) -> FiniteHorizonSolution:
    """Values and optimal Markov strategies of the n-stage game.

    Stage m of the returned strategies plays the optimal mixed action of the
    local game with r = n - m + 1 remaining stages (backward induction), for every r that
    :func:`finite_values` solves; where its span rule stopped at r, stages 1..n - r + 1 play the
    stage-r actions as one run.  The strategies need one induction per call; the values are those
    of :func:`finite_values`, read from the rows that induction keeps on the game.
    """
    horizon = _check_horizon(horizon)
    xs, ys, batch = [], [], []
    for solved, (local, strategies) in enumerate(_backward_induction(game, horizon), 1):
        if strategies is None:  # 2x2: the strategies of every stage come from one batch below
            batch.append(local)
        else:
            for out, probs in zip((xs, ys), strategies):
                out.append(probs[None])
    values = _value_rows(game, horizon)
    # the closed form works elementwise: the bytes of per-stage calls, in chunks of 32k local games
    step = max(1, 2**15 // game.num_states)
    for k in range(0, len(batch), step):
        for out, probs in zip((xs, ys), _solve_batch(np.concatenate(batch[k : k + step]))[1:]):
            out.append(probs.reshape(-1, game.num_states, 2)[::-1])
    # pieces in reverse: stage m plays the solution with n - m + 1 stages remaining
    x, y = (MarkovStrategy.from_stages(np.concatenate(pieces[::-1])) for pieces in (xs, ys))
    if solved < horizon:  # the first run also covers the stages before the last one solved
        x, y = (MarkovStrategy(np.r_[s.lengths[0] + horizon - solved, s.lengths[1:]], s.probs) for s in (x, y))
    return FiniteHorizonSolution(horizon, values, x, y)


def limit_value_estimate(
    game: StochasticGame,
    discounts,
    tol: float = 1e-8,
) -> LimitValueEstimate:
    """Estimate the limit value from a decreasing discount grid.

    Returns the discounted value at the smallest grid point together with
    the maximal sup-norm gap between consecutive grid solutions.  No
    extrapolation is attempted; the dispersion is reported, never hidden.
    """
    return limit_value_from_solutions([discounted_value(game, d, tol) for d in discounts])


def limit_value_from_solutions(solutions) -> LimitValueEstimate:
    """:func:`limit_value_estimate` from discounted solutions already computed.

    The grid is read off the solutions' discounts and must meet the same
    conditions.
    """
    grid = tuple(sol.discount for sol in solutions)
    if not grid:
        raise InputError("discount grid must be non-empty")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise InputError("discount grid must be strictly decreasing")
    if grid[-1] > 1e-3:
        raise InputError("smallest grid discount must be at most 1e-3")
    dispersion = 0.0
    for a, b in zip(solutions, solutions[1:]):
        dispersion = max(dispersion, float(np.abs(a.value - b.value).max()))
    return LimitValueEstimate(solutions[-1].value, dispersion, grid)
