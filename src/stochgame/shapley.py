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
    cap = default_iteration_cap(game, discount, tol) if max_iterations is None else max_iterations
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


def _backward_induction(game: StochasticGame, horizon: int):
    """Yield v_r, its local games and both players' optimal local strategies, for r = 1..n stages
    remaining; on 2x2 games, whose closed form takes no hint, a stage solves only its values and
    yields None for the strategies."""
    v, hint = np.zeros(game.num_states), None
    for r in range(1, horizon + 1):
        local = local_game_tensor(game, 1.0 / r, v)
        if local.shape[1:] == (2, 2):
            v = _value_2x2(local)[0]
        else:  # the previous stage's strategies hint this stage's supports
            v, *hint = _solve_batch(local, hint)
        yield v, local, hint


def finite_values(game: StochasticGame, horizon: int) -> np.ndarray:
    """Values v_1..v_n of the 1..n stage games, shape (n, states).

    The values of :func:`finite_value` without the strategies, copied from the table a
    :func:`finite_value` at least n long left on the game if there is one (row r does
    not depend on n).  This call keeps no table: a certificate needs only v_n.
    """
    if len(game._n_stage_table) >= _check_horizon(horizon):
        return game._n_stage_table[:horizon].copy()
    stages = (v for v, _, _ in _backward_induction(game, horizon))
    return _finite(np.fromiter(stages, np.dtype((float, game.num_states)), count=horizon))


def finite_value(game: StochasticGame, horizon: int) -> FiniteHorizonSolution:
    """Values and optimal Markov strategies of the n-stage game.

    Stage m of the returned strategies plays the optimal mixed action of the
    local game with r = n - m + 1 remaining stages (backward induction).  The longest
    values table solved stays on the game, as a read-only copy, for :func:`finite_values`.
    """
    values, xs, ys, batch = [], [], [], []
    for v, local, strategies in _backward_induction(game, _check_horizon(horizon)):
        values.append(v)
        if strategies is None:  # 2x2: the strategies of every stage come from one batch below
            batch.append(local)
        else:  # wrap each stage as it comes, so the kernel's arrays are not held twice
            for out, probs in zip((xs, ys), strategies):
                out.append(StationaryStrategy(probs))
    # the closed form works elementwise: the bytes of per-stage calls, in chunks of 32k local games
    step = max(1, 2**15 // game.num_states)
    for k in range(0, len(batch), step):
        for out, probs in zip((xs, ys), _solve_batch(np.concatenate(batch[k : k + step]))[1:]):
            out += map(StationaryStrategy, probs.reshape(-1, game.num_states, 2))
    values = _finite(np.array(values))
    if len(game._n_stage_table) < horizon:  # as large as the values returned with it
        object.__setattr__(game, "_n_stage_table", _freeze(values.copy()))
    # stage m plays the solution with n - m + 1 stages remaining
    return FiniteHorizonSolution(
        horizon, values, MarkovStrategy.from_stages(xs[::-1]), MarkovStrategy.from_stages(ys[::-1])
    )


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
