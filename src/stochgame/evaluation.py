"""Exact evaluation of strategy profiles and optimality diagnostics.

Everything except :func:`monte_carlo_payoff` is exact up to rounding.  The backward recursions
stay within ``1e-14 * max_abs_payoff`` of exact rationals on the 2x2 corpus games at n = 400
(measured at most 1.8e-15; ``TestExactReference`` in ``tests/test_shapley.py`` and
``tests/test_evaluation.py``); matrix powers that read a stationary profile's far stages carry
error that can grow like ``eps / discount``, measured at most ``2.2e-12 * max_abs_payoff`` down to 1e-6.

Where the increments of a backward recursion close to a span of ``shapley._AFFINE_TOL * max|g|``
(random games, not the Big Match), the recursion stops and its later rows are affine.  On games
whose transition rows sum to exactly 1 that tail stays within ``4 * eps * max|g|`` of a long-double
loop at n = 12,000 (``TestLongDoubleReference``).  Rows within ``PROB_TOL`` of 1 are used as if
exact, which the tail does and the stage-by-stage loop does not: for a row defect d the two part by
up to about ``n * d * max|g|``, measured 3.6e-15 to 7.5e-14 of max|g| on random games at n = 5,000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .game import (
    MarkovStrategy,
    StationaryStrategy,
    StochasticGame,
    _check_horizon,
    point_mass,
    profile_stage_payoffs,
    profile_transition_matrix,
)
from .shapley import _affine_fill, _closed_increment, _value_rows


def stages_to_weight(discount: float, fraction: float) -> int:
    """First stage count whose cumulative discount weight reaches ``fraction``.

    This is the smallest M >= 1 with sum_{m<=M} d(1-d)^(m-1) >= fraction,
    equivalently 1 - (1-d)^M >= fraction.  The log-ratio ceiling gives the
    candidate; the defining inequality is then re-checked so the returned
    integer is exact even when the ratio lands on an integer boundary.
    """
    discount = float(discount)
    fraction = float(fraction)
    if not 0.0 < discount < 1.0:
        raise InputError(f"discount must lie in (0, 1), got {discount!r}")
    if not 0.0 <= fraction < 1.0:
        raise InputError(f"fraction must lie in [0, 1), got {fraction!r}")
    if fraction == 0.0:
        return 1
    stages = max(1, math.ceil(math.log1p(-fraction) / math.log1p(-discount)))
    remaining = 1.0 - fraction
    log_base = math.log1p(-discount)  # (1-d)**M would carry the rounding of 1-d M times over
    while stages > 1 and math.exp((stages - 1) * log_base) <= remaining:
        stages -= 1
    while math.exp(stages * log_base) > remaining:
        stages += 1
    return stages


def cumulative_stage(fraction: float, horizon: int) -> int:
    """Stage index ceil(fraction * horizon), clamped to [1, horizon].

    Decimal fractions are meant to land exactly on stage boundaries, so a
    1e-9 downward guard absorbs binary rounding of fraction * horizon.
    """
    return max(1, min(horizon, math.ceil(fraction * horizon - 1e-9)))


def _as_markov(game: StochasticGame, strategy, horizon: int, player: int) -> MarkovStrategy:
    """Player ``player``'s strategy as a Markov strategy at least ``horizon`` stages long whose
    tables have that player's (states x actions) shape in ``game``."""
    _check_horizon(horizon)
    who = f"Player {player}"
    if isinstance(strategy, StationaryStrategy):
        strategy = MarkovStrategy.from_stationary(strategy, horizon)
    elif not isinstance(strategy, MarkovStrategy):
        raise InputError(f"{who} strategy must be a StationaryStrategy or MarkovStrategy")
    elif strategy.horizon < horizon:
        raise InputError(f"{who} strategy horizon {strategy.horizon} is shorter than the requested {horizon}")
    if strategy.probs.shape[1:] != (game.num_states, game.payoff.shape[player]):
        raise InputError(f"{who} strategy shape does not match the game")
    return strategy


def _profile_strategies(game: StochasticGame, profile, horizon: int) -> tuple[MarkovStrategy, MarkovStrategy]:
    if hasattr(profile, "sigma") and hasattr(profile, "rho"):
        sigma, rho = profile.sigma, profile.rho
    else:
        try:
            sigma, rho = profile
        except (TypeError, ValueError):
            raise InputError("profile must be an AdaptedProfile or a (sigma, rho) pair") from None
    return _as_markov(game, sigma, horizon, 1), _as_markov(game, rho, horizon, 2)


def _joint_runs(sigma: MarkovStrategy, rho: MarkovStrategy, horizon: int):
    """Yield (length, x, y) runs of the first ``horizon`` stages over which both strategies'
    tables are constant: the joint runs end where either strategy's run ends."""
    ends = [np.minimum(np.cumsum(strategy.lengths), horizon) for strategy in (sigma, rho)]
    # the last stage of every run, merged in order: a stage that ends a run of both strategies
    # gives an empty run, skipped (np.union1d would import numpy.ma, about 1 MB, on first use)
    joint = np.insert(ends[0], np.searchsorted(*ends), ends[1])
    runs1, runs2 = (np.searchsorted(e, joint).tolist() for e in ends)
    for length, k1, k2 in zip(np.diff(joint, prepend=0).tolist(), runs1, runs2):
        if length:
            yield length, sigma.probs[k1], rho.probs[k2]


@dataclass(frozen=True, eq=False)
class PayoffTrajectory:
    """Exact per-stage payoffs of a profile from one initial state.

    ``stage_payoffs[m - 1]`` is the expected stage-m payoff,
    ``cumulative[M]`` is (1/n) * sum of the first M stage payoffs
    (``cumulative[0] == 0``), and ``value_curve[m - 1]``, when present, is
    the expected reference value of the stage-m state for m = 1..n+1.
    """

    horizon: int
    initial_state: int
    stage_payoffs: np.ndarray
    cumulative: np.ndarray
    value_curve: np.ndarray | None = None

    @property
    def total_payoff(self) -> float:
        """Average payoff over the whole horizon."""
        return float(self.cumulative[-1])


def _state_vector(game: StochasticGame, values, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (game.num_states,):
        raise InputError(f"{what} must be a vector over the game's states")
    return v


def trajectory(
    game: StochasticGame,
    sigma,
    rho,
    initial_state,
    horizon: int,
    limit_value=None,
) -> PayoffTrajectory:
    """Exact expected stage payoffs under (sigma, rho) from ``initial_state``.

    When ``limit_value`` is given, also records the expected reference value
    of the state at every stage 1..n+1.
    """
    sigma, rho = _as_markov(game, sigma, horizon, 1), _as_markov(game, rho, horizon, 2)
    start = game.state_index(initial_state)
    vstar = None if limit_value is None else _state_vector(game, limit_value, "limit_value")

    dist = point_mass(game, start)
    stage_payoffs = np.empty(horizon)
    curve = np.empty(horizon + 1) if vstar is not None else None
    m = 0
    for length, x, y in _joint_runs(sigma, rho, horizon):
        rewards = np.einsum("si,sj,sij->s", x, y, game.payoff)
        kernel = np.einsum("si,sj,sijt->st", x, y, game.transition)
        for _ in range(length):
            if curve is not None:
                curve[m] = dist @ vstar
            stage_payoffs[m] = dist @ rewards
            dist = dist @ kernel
            m += 1
    if curve is not None:
        curve[horizon] = dist @ vstar
    cumulative = np.concatenate(([0.0], np.cumsum(stage_payoffs) / horizon))
    return PayoffTrajectory(horizon, start, stage_payoffs, cumulative, curve)


def _t_grid(t_grid) -> tuple[float, ...]:
    grid = tuple(float(t) for t in t_grid)
    if not grid or any(not 0.0 < t < 1.0 for t in grid):
        raise InputError("t_grid must be non-empty with entries in (0, 1)")
    return grid


@dataclass(frozen=True, eq=False)
class ConstantPayoffCurve:
    """Cumulative payoff at each fraction t against the target t * v*(start)."""

    horizon: int
    initial_state: int
    t_grid: tuple[float, ...]
    stages: tuple[int, ...]
    cumulative: tuple[float, ...]
    targets: tuple[float, ...]
    deviations: tuple[float, ...]
    sup_deviation: float


def constant_payoff_curve(
    game: StochasticGame,
    profile,
    initial_state,
    horizon: int,
    t_grid,
    limit_value,
) -> ConstantPayoffCurve:
    """Deviation of the cumulative payoff from the linear growth t * v*(start)."""
    grid = _t_grid(t_grid)
    vstar = _state_vector(game, limit_value, "limit_value")
    sigma, rho = _profile_strategies(game, profile, horizon)
    traj = trajectory(game, sigma, rho, initial_state, horizon)
    start_value = float(vstar[traj.initial_state])
    stages = tuple(cumulative_stage(t, horizon) for t in grid)
    cumulative = tuple(float(traj.cumulative[M]) for M in stages)
    targets = tuple(t * start_value for t in grid)
    deviations = tuple(c - tv for c, tv in zip(cumulative, targets))
    sup_dev = max(abs(d) for d in deviations)
    return ConstantPayoffCurve(
        horizon, traj.initial_state, grid, stages, cumulative, targets, deviations, sup_dev
    )


def _at_stage(kernel: np.ndarray, values: np.ndarray, stage: int) -> np.ndarray:
    """E[values(state at ``stage``)] from every start of the chain ``kernel``, as
    ``kernel^(stage - 1) @ values`` by repeated squaring: O(log stage) products."""
    return np.linalg.matrix_power(kernel, stage - 1) @ values


def discounted_cumulative_payoff(
    game: StochasticGame,
    x: StationaryStrategy,
    y: StationaryStrategy,
    initial_state,
    discount: float,
    fraction: float,
) -> float:
    """Discounted payoff accumulated until the weight-``fraction`` stage.

    Expectation of sum_{m<=M} d(1-d)^(m-1) g_m, M = :func:`stages_to_weight`(discount,
    fraction), in closed form: ``w - (1-d)^M P^M w``, with P the stationary
    profile's transition matrix and w its full discounted payoff.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError(f"fraction must lie in (0, 1), got {fraction!r}")
    stages = stages_to_weight(discount, fraction)
    start = game.state_index(initial_state)
    kernel = profile_transition_matrix(game, x, y)
    eye = np.eye(game.num_states)
    # the system discounted_value solves: absorbing rows stay exact
    w = np.linalg.solve(discount * eye + (1.0 - discount) * (eye - kernel), discount * profile_stage_payoffs(game, x, y))
    # (1-d)**M would carry the rounding of 1-d M times over
    tail = math.exp(stages * math.log1p(-discount))
    return float(w[start] - tail * _at_stage(kernel, w, stages + 1)[start])


# ---------------------------------------------------------------------------
# Guarantees and optimality certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GuaranteeCertificate:
    """Best-response guarantee levels of a fixed Player 1 Markov strategy.

    ``levels[m - 1]`` is the average payoff over stages m..n that the
    strategy guarantees against an adversary best-responding from stage m on
    (``levels[n]`` is the zero terminal).  ``epsilon`` is the worst-state gap
    between the n-stage value and ``levels[0]``.
    """

    horizon: int
    levels: np.ndarray
    epsilon: float


def _response_levels(
    game: StochasticGame,
    strategy: MarkovStrategy,
    horizon: int,
    *,
    adversary_minimizes: bool,
) -> np.ndarray:
    """Backward best-response recursion against a fixed Markov strategy.

    With ``adversary_minimizes`` the fixed strategy belongs to Player 1 and
    the recursion takes the min over Player 2's pure actions; otherwise the
    fixed strategy is Player 2's and the max is over Player 1's actions.
    Stage m mixes the stage payoff with weight 1/(n - m + 1).  Returns the
    full (horizon + 1, states) table; row m-1 is the level from stage m.
    Within each run of the fixed strategy the span rule of
    :func:`~stochgame.shapley.finite_values` applies, checked at the run's
    stages 1, 2, 4, ...: once it closes, the rest of the run is filled affinely.
    """
    rule, best = ("si,sij...->sj...", np.minimum) if adversary_minimizes else ("sj,sij...->si...", np.maximum)
    states, actions = game.num_states, game.payoff.shape[2 if adversary_minimizes else 1]
    levels = np.zeros((horizon + 1, states))
    # one set of buffers per call, in (actions, states) layout so ``best`` reduces over the leading
    # axis; the kernel keeps the einsum's layout, since a matmul over another changes the last bit
    own_payoff, ahead, totals = np.empty((3, actions, states))
    own_kernel = np.empty((states, actions, states))
    m = horizon
    for length, probs in reversed(list(strategy.runs(horizon))):
        np.einsum(rule, probs, game.payoff, out=own_payoff.T)
        np.einsum(rule, probs, game.transition, out=own_kernel)
        for j in range(1, length + 1):
            remaining = horizon - m + 1
            weight = 1.0 / remaining
            # weight * own_payoff + (1 - weight) * (own_kernel @ w), w = levels[m]
            np.matmul(own_kernel, levels[m], out=ahead.T)
            np.multiply(ahead, 1.0 - weight, out=ahead)
            np.add(np.multiply(own_payoff, weight, out=totals), ahead, out=totals)
            best.reduce(totals, axis=0, out=levels[m - 1])
            m -= 1
            if j < length and not j & (j - 1):  # the run's operator is fixed: its span rule applies
                mid = _closed_increment(levels[m], levels[m + 1], remaining, game.max_abs_payoff)
                if mid is not None:  # the run's other rows, k + rest down to k + 1 stages
                    rest = length - j
                    _affine_fill(levels[m - rest : m], np.arange(rest, 0.0, -1), levels[m], remaining, mid)
                    m -= rest
                    break
    return levels


def guaranteed_value(game: StochasticGame, sigma, horizon: int) -> GuaranteeCertificate:
    """Exact worst-case (best-response) value of a fixed Player 1 strategy.

    Against a fixed Markov strategy the adversary faces a finite-horizon
    Markov decision problem, so the backward min recursion attains the
    minimum over all strategies.  v_n is read from the game's n-stage cache.
    """
    sigma = _as_markov(game, sigma, horizon, 1)
    levels = _response_levels(game, sigma, horizon, adversary_minimizes=True)
    epsilon = float((_value_rows(game, horizon, horizon)[0] - levels[0]).max())
    return GuaranteeCertificate(horizon, levels, epsilon)


def certify_epsilon_optimality(game: StochasticGame, profile, horizon: int) -> float:
    """Worst-state optimality gap of a profile in the n-stage game.

    Both players' strategies are measured against exact best responses; the
    result is max over states of the larger one-sided gap to the n-stage
    value v_n, read from the game's n-stage cache as in :func:`guaranteed_value`.
    Values within solver noise of zero certify optimality.
    """
    sigma, rho = _profile_strategies(game, profile, horizon)
    low = _response_levels(game, sigma, horizon, adversary_minimizes=True)[0]
    high = _response_levels(game, rho, horizon, adversary_minimizes=False)[0]
    v_n = _value_rows(game, horizon, horizon)[0]
    return float(max((v_n - low).max(), (high - v_n).max()))


# ---------------------------------------------------------------------------
# Value-drift diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ValueDriftReport:
    """Drift of the expected reference value along a profile's play.

    ``drifts[k]`` is E[v*(state at stage ceil(t_k n) + 1)] - v*(start).  The
    block fields are filled when the profile carries a block schedule: the
    largest within-block drift is reported against 1/p^2 and the largest
    drift over the scheduled stages against 2/p, p being the block count.
    """

    horizon: int
    initial_state: int
    t_grid: tuple[float, ...]
    drifts: tuple[float, ...]
    sup_drift: float
    within_block_max: float | None = None
    within_block_target: float | None = None
    global_max: float | None = None
    global_target: float | None = None


def value_drift_diagnostic(
    game: StochasticGame,
    profile,
    initial_state,
    horizon: int,
    t_grid,
    limit_value,
) -> ValueDriftReport:
    """Measure how far play moves the expected reference value of the state."""
    grid = _t_grid(t_grid)
    sigma, rho = _profile_strategies(game, profile, horizon)
    traj = trajectory(game, sigma, rho, initial_state, horizon, limit_value=limit_value)
    curve = traj.value_curve
    start_value = float(curve[0])
    drifts = tuple(float(curve[cumulative_stage(t, horizon)] - start_value) for t in grid)
    sup_drift = max(abs(d) for d in drifts)

    blocks = {}
    schedule = getattr(profile, "schedule", None)
    if schedule is not None:
        a, p = schedule.block_length, schedule.num_blocks
        # curve[k*a] is stage k*a + 1; each block is compared up to the stage after
        # it, and a profile longer than the horizon counts only the blocks begun
        within_max = max(
            float(np.abs(curve[k * a : (k + 1) * a + 1] - curve[k * a]).max())
            for k in range(min(p, horizon // a + 1))
        )
        global_max = float(np.abs(curve[: p * a] - start_value).max())
        blocks = dict(within_block_max=within_max, within_block_target=p**-2, global_max=global_max, global_target=2.0 / p)
    return ValueDriftReport(horizon, traj.initial_state, grid, drifts, sup_drift, **blocks)


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


def _padded_cdf(probs: np.ndarray) -> tuple[np.ndarray, int]:
    """Flat CDF rows of ``probs`` (last axis), padded to a power-of-two width, and
    that width; the last real entry and the padding are ``inf``."""
    cols = probs.shape[-1]
    width = 1 << (cols - 1).bit_length()
    cdf = np.full((probs.size // cols, width), np.inf)
    cdf[:, : cols - 1] = np.cumsum(probs.reshape(-1, cols)[:, :-1], axis=1)
    return cdf.ravel(), width


def _sample_rows(cdf: np.ndarray, width: int, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per path, the column that ``u`` draws from CDF row ``rows``: a fixed-depth binary
    search for ``#{k < cols - 1 : c_k < u}``, equal on nondecreasing rows to the
    compare-and-count ``min(#{k : c_k < u}, cols - 1)``."""
    pos, step = rows * width, width // 2
    while step:
        pos += step * (cdf.take(pos + (step - 1)) < u)
        step //= 2
    return pos & (width - 1)


def monte_carlo_payoff(
    game: StochasticGame,
    profile,
    initial_state,
    horizon: int,
    trials: int,
    seed,
) -> tuple[float, float]:
    """Unbiased simulation estimate of the average n-stage payoff.

    Returns (mean, standard error) over ``trials`` independent paths.  All
    paths advance in lockstep on one seeded PCG64 stream; each stage draws,
    in order, Player 1 actions, Player 2 actions, then next states, one
    vectorized draw each: the first column whose cumulative probability
    reaches the uniform variate, found by binary search, so a stage costs
    O(trials * log(states)).  That draw rule and order are the
    reproducibility contract, pinned by the tests: the same seed always
    yields the same estimate.
    """
    trials = _check_horizon(trials, "trials")
    sigma, rho = _profile_strategies(game, profile, horizon)
    start = game.state_index(initial_state)
    rng = np.random.default_rng(seed)
    kernel_cdf, kernel_width = _padded_cdf(game.transition)

    states = np.full(trials, start, dtype=np.intp)
    totals = np.zeros(trials)
    for length, x, y in _joint_runs(sigma, rho, horizon):
        x_cdf, x_width = _padded_cdf(x)
        y_cdf, y_width = _padded_cdf(y)
        for _ in range(length):
            acts1 = _sample_rows(x_cdf, x_width, states, rng.random(trials))
            acts2 = _sample_rows(y_cdf, y_width, states, rng.random(trials))
            cells = (states * game.num_actions1 + acts1) * game.num_actions2 + acts2
            totals += game.payoff.take(cells)
            states = _sample_rows(kernel_cdf, kernel_width, cells, rng.random(trials))
    averages = totals / horizon
    mean = float(averages.mean())
    stderr = float(averages.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
