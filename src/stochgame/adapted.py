"""Block schedules and block-discounted Markov profiles.

A horizon-n schedule with block length a partitions the stages into blocks
of a (plus a final partial block when a does not divide n).  Block k plays
the optimal stationary profile of the discounted game at discount
1/(n - k*a), i.e. the inverse of the number of stages remaining when the
block starts.  Profiles built this way are asymptotically optimal in the
n-stage game and, with block lengths chosen against a drift-threshold
sequence, keep the expected running payoff on the straight line t * v*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, ScheduleNotReadyError
from .evaluation import _at_stage, _state_vector, stages_to_weight
from .game import MarkovStrategy, StationaryStrategy, StochasticGame, _check_horizon, profile_transition_matrix
from .shapley import DiscountedSolution, discounted_value

#: default fractions for drift measurement; capped at 7/8 because one block
#: plus one stage never accumulates more than 7/8 of the discount weight
DEFAULT_DRIFT_T_GRID = tuple(k / 8 for k in range(1, 8))


@dataclass(frozen=True)
class BlockSchedule:
    """Horizon n split into blocks of length a with per-block discounts.

    Stage m lies in block (m - 1) // a, and ``discounts[k] == 1/(n - k*a)``
    for every block k, including the final partial block when a does not
    divide n.  Discounts are strictly increasing and lie in (0, 1].
    """

    horizon: int
    block_length: int
    num_blocks: int
    discounts: tuple[float, ...]

    def block_bounds(self, block: int) -> tuple[int, int]:
        """First and last 1-based stage of ``block``."""
        if not 0 <= block < len(self.discounts):
            raise InputError(f"block {block} outside [0, {len(self.discounts) - 1}]")
        first = block * self.block_length + 1
        last = min((block + 1) * self.block_length, self.horizon)
        return first, last

    def summary(self) -> dict:
        return {
            "n": self.horizon,
            "a": self.block_length,
            "p": self.num_blocks,
            "discounts": list(self.discounts),
        }


def block_schedule(horizon: int, block_length: int) -> BlockSchedule:
    """Build the schedule for ``horizon`` stages and blocks of ``block_length``."""
    horizon, block_length = _check_horizon(horizon), _check_horizon(block_length, "block length")
    if not 2 <= block_length <= horizon:
        raise InputError(
            f"block length must satisfy 2 <= a <= horizon, got a={block_length}, horizon={horizon}"
        )
    num_blocks = horizon // block_length
    last_block = (horizon - 1) // block_length
    discounts = tuple(1.0 / (horizon - k * block_length) for k in range(last_block + 1))
    return BlockSchedule(horizon, block_length, num_blocks, discounts)


def default_block_length(horizon: int) -> int:
    """Square-root block length, the default when no thresholds are supplied."""
    horizon = _check_horizon(horizon, least=2)
    return min(horizon, max(2, math.isqrt(horizon - 1) + 1))


class DiscountedProfileProvider:
    """Caches optimal stationary profiles per discount for one game.

    The provider is the profile source of block-discounted constructions:
    each distinct discount is solved once at the configured tolerance and
    reused across schedules.
    """

    def __init__(self, game: StochasticGame, tol: float = 1e-8):
        if not tol > 0.0:
            raise InputError("tol must be positive")
        if not math.isfinite(tol):
            raise InputError("tol must be finite")
        self.game = game
        self.tol = float(tol)
        self._cache: dict[float, DiscountedSolution] = {}

    @property
    def ident(self) -> str:
        return f"discounted_value(tol={self.tol!r})"

    def solution(self, discount: float) -> DiscountedSolution:
        key = float(discount)
        if key not in self._cache:
            self._cache[key] = discounted_value(self.game, key, self.tol)
        return self._cache[key]

    def profile(self, discount: float) -> tuple[StationaryStrategy, StationaryStrategy]:
        sol = self.solution(discount)
        return sol.x, sol.y


@dataclass(frozen=True, eq=False)
class AdaptedProfile:
    """Markov profile playing the block discount's optimal profile per block."""

    horizon: int
    schedule: BlockSchedule
    sigma: MarkovStrategy
    rho: MarkovStrategy
    source: str
    tol: float

    def summary(self) -> dict:
        out = self.schedule.summary()
        out["source"] = self.source
        out["tol"] = self.tol
        return out


def adapted_profile(
    game: StochasticGame,
    horizon: int,
    block_length: int | None = None,
    tol: float | None = None,
    provider: DiscountedProfileProvider | None = None,
) -> AdaptedProfile:
    """Build the block-discounted profile for ``horizon`` stages.

    Performs at most one discounted solve per block discount; the strategies
    are assembled block-constant, so the profile costs O(number of blocks)
    memory regardless of the horizon.  ``tol`` defaults to the provider's,
    else 1e-8; one that differs from ``provider.tol`` raises InputError.
    Identical inputs (including ``tol``) produce bit-identical profiles.
    """
    if block_length is None:
        block_length = default_block_length(horizon)
    schedule = block_schedule(horizon, block_length)
    if provider is None:
        provider = DiscountedProfileProvider(game, 1e-8 if tol is None else tol)
    elif tol is not None and float(tol) != provider.tol:
        raise InputError(f"tol {tol!r} differs from the provider's tol {provider.tol!r}")
    lengths, xs, ys = [], [], []
    for block, discount in enumerate(schedule.discounts):
        try:
            sol = provider.solution(discount)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"discounted solve for block {block} (discount {discount}) failed: {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        first, last = schedule.block_bounds(block)
        lengths.append(last - first + 1)
        xs.append(sol.x.probs)
        ys.append(sol.y.probs)
    sigma, rho = MarkovStrategy(lengths, xs), MarkovStrategy(lengths, ys)
    return AdaptedProfile(schedule.horizon, schedule, sigma, rho, provider.ident, provider.tol)


# ---------------------------------------------------------------------------
# Block-length selection from drift thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscountThresholds:
    """Per-block-count discount thresholds in (0, 1/2].

    ``values[p - 1]`` is a discount below which the induced stationary play
    moves the expected reference value of the state by at most 1/p^2 at
    every measured fraction.  ``approximate`` flags estimates where the
    smallest probed discount still violated the bound for some p.
    """

    values: tuple[float, ...]
    provenance: str
    approximate: bool = False

    def __post_init__(self):
        if not self.values:
            raise InputError("thresholds must be non-empty")
        if any(not 0.0 < v <= 0.5 for v in self.values):
            raise InputError("thresholds must lie in (0, 1/2]")

    def __len__(self) -> int:
        return len(self.values)

    def value_at(self, num_blocks: int) -> float:
        if not 1 <= num_blocks <= len(self.values):
            raise InputError(f"no threshold stored for block count {num_blocks}")
        return self.values[num_blocks - 1]

    @classmethod
    def analytic_default(cls, max_blocks: int) -> "DiscountThresholds":
        """Clamped inverse-square-root fallback, independent of any game."""
        if max_blocks < 1:
            raise InputError("max_blocks must be at least 1")
        values = tuple(min(0.5, p**-0.5) for p in range(1, max_blocks + 1))
        return cls(values, "analytic-default")


def select_block_length(horizon: int, thresholds: DiscountThresholds) -> int:
    """Smallest block length a with 1/a below the threshold for p = n // a.

    Raises :class:`ScheduleNotReadyError` when no a in [2, n] qualifies;
    callers should then fall back to :func:`default_block_length`.
    """
    horizon = _check_horizon(horizon, least=2)
    max_blocks = horizon // 2
    if len(thresholds) < max_blocks:
        raise InputError(
            f"thresholds must cover block counts 1..{max_blocks}, got {len(thresholds)}"
        )
    for a in range(2, horizon + 1):
        if 1.0 / a <= thresholds.value_at(horizon // a):
            return a
    raise ScheduleNotReadyError(
        f"no block length in [2, {horizon}] meets the thresholds; "
        "use the default square-root schedule at this horizon"
    )


def block_weight_mass(block_length: int) -> float:
    """Discount weight of one block plus one stage at discount 1/a.

    Equals 1 - (1 - 1/a)^(a+1); increasing in the discount, hence at most
    7/8 for every block length a >= 2.
    """
    block_length = _check_horizon(block_length, "block length", least=2)
    return 1.0 - (1.0 - 1.0 / block_length) ** (block_length + 1)


def estimate_discount_thresholds(
    game: StochasticGame,
    provider: DiscountedProfileProvider,
    discount_grid,
    max_blocks: int,
    limit_value,
    t_grid=None,
) -> DiscountThresholds:
    """Empirical drift thresholds from exact evaluation on a discount grid.

    For each probed discount the optimal stationary profile is evaluated
    exactly, by a matrix power per fraction: the drift is the largest
    |E[v*(state at the weight-t stage)] - v*(start)| over the fraction grid
    and all start states.  The threshold for block count p is then the
    largest grid discount whose whole tail keeps the drift at or below
    1/p^2.  Grids make this an auditable surrogate for thresholds that exist
    only by a compactness argument; when even the smallest probed discount
    fails the bound the result is flagged approximate.
    """
    grid = tuple(float(d) for d in discount_grid)
    if not grid:
        raise InputError("discount grid must be non-empty")
    if any(not 0.0 < d <= 0.5 for d in grid):
        raise InputError("discount grid entries must lie in (0, 1/2]")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise InputError("discount grid must be strictly decreasing")
    if max_blocks < 1:
        raise InputError("max_blocks must be at least 1")
    fractions = DEFAULT_DRIFT_T_GRID if t_grid is None else tuple(float(t) for t in t_grid)
    if not fractions or any(not 0.0 < t <= 7.0 / 8.0 for t in fractions):
        raise InputError("t_grid entries must lie in (0, 7/8]")
    vstar = _state_vector(game, limit_value, "limit_value")

    kernels = [profile_transition_matrix(game, *provider.profile(discount)) for discount in grid]
    drifts = [
        max(np.abs(_at_stage(kernel, vstar, stages_to_weight(discount, t)) - vstar).max() for t in fractions)
        for discount, kernel in zip(grid, kernels)
    ]

    # tail_max[i]: worst drift among grid discounts <= grid[i]; it never increases
    # along the grid, so the entries within 1/p^2 form a suffix of it
    tail_max = np.maximum.accumulate(drifts[::-1])[::-1]
    first = [len(grid) - int((tail_max <= p**-2).sum()) for p in range(1, max_blocks + 1)]
    values = tuple(grid[min(i, len(grid) - 1)] for i in first)
    return DiscountThresholds(values, "empirical", max(first) == len(grid))
