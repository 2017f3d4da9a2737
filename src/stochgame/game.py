"""Finite zero-sum stochastic games: data types, validation, and file I/O.

A game is a tuple (states, actions1, actions2, payoff, transition) where
``payoff[s, i, j]`` is the stage amount Player 2 pays Player 1 and
``transition[s, i, j, t]`` is the probability that the next state is ``t``.
Games are immutable after construction and safe to share across workers;
every operation in this module is a pure function of its inputs.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import GameFormatError, InputError, InvalidGameError

#: tolerance for probability vectors (mixed actions, transition rows)
PROB_TOL = 1e-12
#: transition rows off by at most this much are renormalized with a warning
RENORM_TOL = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _labels(raw, what: str) -> tuple[str, ...]:
    labels = tuple(str(x) for x in raw)
    if not labels:
        raise InvalidGameError(f"{what} must be non-empty")
    if len(set(labels)) != len(labels):
        raise InvalidGameError(f"{what} contains duplicate labels")
    return labels


@dataclass(frozen=True, eq=False)
class StochasticGame:
    """Immutable finite zero-sum stochastic game.

    ``transition[s, i, j]`` must be a probability vector over states; rows
    off by more than 1e-12 but at most 1e-9 are renormalized with a warning,
    larger deviations are rejected.
    """

    states: tuple[str, ...]
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    payoff: np.ndarray
    transition: np.ndarray
    name: str | None = None
    max_abs_payoff: float = field(init=False)
    #: n-stage values by horizon, kept by ``evaluation._n_stage_value``
    _n_stage_values: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    #: read-only v_1..v_n of the longest ``shapley.finite_value`` solve, read by ``finite_values``
    _n_stage_table: np.ndarray = field(init=False, default_factory=lambda: np.empty((0, 0)), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "states", _labels(self.states, "states"))
        object.__setattr__(self, "actions1", _labels(self.actions1, "actions1"))
        object.__setattr__(self, "actions2", _labels(self.actions2, "actions2"))
        ns, ni, nj = len(self.states), len(self.actions1), len(self.actions2)

        payoff = np.array(self.payoff, dtype=float)
        if payoff.shape != (ns, ni, nj):
            raise InvalidGameError(
                f"payoff shape {payoff.shape} does not match (states, actions1, actions2) = {(ns, ni, nj)}"
            )
        if not np.isfinite(payoff).all():
            s, i, j = np.unravel_index(int(np.argmin(np.isfinite(payoff))), payoff.shape)
            raise InvalidGameError(
                f"payoff entry at (state={self.states[s]}, i={self.actions1[i]}, j={self.actions2[j]}) is not finite"
            )

        transition = np.array(self.transition, dtype=float)
        if transition.shape != (ns, ni, nj, ns):
            raise InvalidGameError(
                f"transition shape {transition.shape} does not match {(ns, ni, nj, ns)}"
            )
        if not np.isfinite(transition).all():
            raise InvalidGameError("transition contains non-finite entries")
        if transition.min() < -PROB_TOL:
            s, i, j, _ = np.unravel_index(int(transition.argmin()), transition.shape)
            raise InvalidGameError(
                f"negative transition probability at (state={self.states[s]}, "
                f"i={self.actions1[i]}, j={self.actions2[j]})"
            )
        transition = np.maximum(transition, 0.0)
        sums = transition.sum(axis=-1)
        dev = np.abs(sums - 1.0)
        if dev.max() > RENORM_TOL:
            s, i, j = np.unravel_index(int(dev.argmax()), dev.shape)
            raise InvalidGameError(
                f"transition row at (state={self.states[s]}, i={self.actions1[i]}, "
                f"j={self.actions2[j]}) sums to {sums[s, i, j]!r}, not 1"
            )
        if dev.max() > PROB_TOL:
            count = int((dev > PROB_TOL).sum())
            warnings.warn(
                f"renormalized {count} transition row(s) off by at most {dev.max():.3g}",
                stacklevel=2,
            )
            transition = transition / sums[..., None]

        object.__setattr__(self, "payoff", _freeze(payoff))
        object.__setattr__(self, "transition", _freeze(transition))
        object.__setattr__(self, "max_abs_payoff", float(np.abs(payoff).max()))

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_actions1(self) -> int:
        return len(self.actions1)

    @property
    def num_actions2(self) -> int:
        return len(self.actions2)

    def state_index(self, state: str | int) -> int:
        if isinstance(state, (int, np.integer)):
            if not 0 <= int(state) < self.num_states:
                raise InputError(f"state index {state} out of range")
            return int(state)
        try:
            return self.states.index(state)
        except ValueError:
            raise InputError(f"unknown state label {state!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochasticGame):
            return NotImplemented
        return (
            self.states == other.states
            and self.actions1 == other.actions1
            and self.actions2 == other.actions2
            and self.name == other.name
            and np.array_equal(self.payoff, other.payoff)
            and np.array_equal(self.transition, other.transition)
        )

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return (
            f"StochasticGame({label!r}, |states|={self.num_states}, "
            f"|actions|={self.num_actions1}x{self.num_actions2})"
        )


@dataclass(frozen=True, eq=False)
class StationaryStrategy:
    """One mixed action per state; ``probs[s, a]`` is the weight on action a."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 2 or probs.size == 0:
            raise InputError("stationary strategy must be a (states x actions) matrix")
        low = probs.min()
        if low < -PROB_TOL:
            raise InputError("stationary strategy has a negative action weight")
        dev = np.abs(probs.sum(axis=1) - 1.0)
        if dev.max() > PROB_TOL:
            s = int(dev.argmax())
            raise InputError(f"mixed action for state index {s} sums to {probs[s].sum()!r}, not 1")
        if low < 0.0:  # clipped, not renormalized: every CDF row is then nondecreasing
            probs = np.maximum(probs, 0.0)
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StationaryStrategy):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    @classmethod
    def uniform(cls, num_states: int, num_actions: int) -> "StationaryStrategy":
        return cls(np.full((num_states, num_actions), 1.0 / num_actions))

    @classmethod
    def pure(cls, num_states: int, num_actions: int, action: int | Sequence[int]) -> "StationaryStrategy":
        choice = np.broadcast_to(np.asarray(action, dtype=int), (num_states,))
        probs = np.zeros((num_states, num_actions))
        probs[np.arange(num_states), choice] = 1.0
        return cls(probs)


def _check_horizon(horizon) -> int:
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise InputError("horizon must be a positive integer")
    return horizon


@dataclass(frozen=True, eq=False)
class MarkovStrategy:
    """Stage-dependent strategy stored as run-length segments.

    ``segments`` is a tuple of ``(length, StationaryStrategy)`` whose lengths
    sum to ``horizon``.  Block-constant strategies keep one segment per block,
    so long horizons with few blocks stay cheap to store and iterate.
    """

    horizon: int
    segments: tuple[tuple[int, StationaryStrategy], ...]

    def __post_init__(self):
        _check_horizon(self.horizon)
        if not self.segments:
            raise InputError("a Markov strategy needs at least one segment")
        total = 0
        shape = None
        for length, strat in self.segments:
            if not isinstance(length, int) or length < 1:
                raise InputError("segment lengths must be positive integers")
            if shape is None:
                shape = strat.probs.shape
            elif strat.probs.shape != shape:
                raise InputError("all segments must share the same (states x actions) shape")
            total += length
        if total != self.horizon:
            raise InputError(f"segment lengths sum to {total}, expected horizon {self.horizon}")

    @property
    def num_states(self) -> int:
        return self.segments[0][1].num_states

    @property
    def num_actions(self) -> int:
        return self.segments[0][1].num_actions

    def at_stage(self, stage: int) -> StationaryStrategy:
        """Stationary strategy played at 1-based ``stage``."""
        if not 1 <= stage <= self.horizon:
            raise InputError(f"stage {stage} outside [1, {self.horizon}]")
        seen = 0
        for length, strat in self.segments:
            seen += length
            if stage <= seen:
                return strat
        raise AssertionError("unreachable: segment lengths sum to horizon")

    def runs(self, limit: int | None = None) -> Iterable[tuple[int, StationaryStrategy]]:
        """Yield (length, strategy) runs, truncated to the first ``limit`` stages."""
        remaining = self.horizon if limit is None else limit
        for length, strat in self.segments:
            if remaining <= 0:
                return
            take = min(length, remaining)
            yield take, strat
            remaining -= take

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkovStrategy):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and len(self.segments) == len(other.segments)
            and all(
                la == lb and sa == sb
                for (la, sa), (lb, sb) in zip(self.segments, other.segments)
            )
        )

    @classmethod
    def from_stationary(cls, strategy: StationaryStrategy, horizon: int) -> "MarkovStrategy":
        return cls(horizon, ((horizon, strategy),))

    @classmethod
    def from_stages(cls, stages: Sequence[StationaryStrategy]) -> "MarkovStrategy":
        """Build from one strategy per stage, merging equal consecutive stages."""
        if not stages:
            raise InputError("need at least one stage")
        segments: list[tuple[int, StationaryStrategy]] = []
        for strat in stages:
            if segments and segments[-1][1] == strat:
                length, prev = segments[-1]
                segments[-1] = (length + 1, prev)
            else:
                segments.append((1, strat))
        return cls(len(stages), tuple(segments))


def point_mass(game: StochasticGame, state: str | int) -> np.ndarray:
    """Distribution putting all mass on one state."""
    d = np.zeros(game.num_states)
    d[game.state_index(state)] = 1.0
    return d


def _check_profile_shapes(game: StochasticGame, x: StationaryStrategy, y: StationaryStrategy):
    if x.probs.shape != (game.num_states, game.num_actions1):
        raise InputError("Player 1 strategy shape does not match the game")
    if y.probs.shape != (game.num_states, game.num_actions2):
        raise InputError("Player 2 strategy shape does not match the game")


def profile_transition_matrix(
    game: StochasticGame, x: StationaryStrategy, y: StationaryStrategy
) -> np.ndarray:
    """State-to-state transition matrix of the chain induced by (x, y)."""
    _check_profile_shapes(game, x, y)
    return np.einsum("si,sj,sijt->st", x.probs, y.probs, game.transition)


def profile_stage_payoffs(
    game: StochasticGame, x: StationaryStrategy, y: StationaryStrategy
) -> np.ndarray:
    """Per-state expected one-stage payoff under (x, y)."""
    _check_profile_shapes(game, x, y)
    return np.einsum("si,sj,sij->s", x.probs, y.probs, game.payoff)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# UTF-8 JSON with fields: states, actions1, actions2 (arrays of strings),
# payoff (nested [state][i][j] numbers), transition (nested
# [state][i][j][state'] numbers), optional name.  Index order follows the
# label arrays.  Numbers are IEEE-754 doubles in decimal; serialization uses
# shortest round-trip representation so load(serialize(g)) == g bit for bit.

_REQUIRED_FIELDS = ("states", "actions1", "actions2", "payoff", "transition")


def load_game(text: str) -> StochasticGame:
    """Parse a game from its JSON text form and validate every invariant."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"invalid JSON: {exc.msg}", location=f"line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(data, dict):
        raise GameFormatError("top level must be a JSON object")
    for fieldname in _REQUIRED_FIELDS:
        if fieldname not in data:
            raise GameFormatError("missing required field", location=fieldname)
    for fieldname in ("states", "actions1", "actions2"):
        value = data[fieldname]
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise GameFormatError("must be an array of strings", location=fieldname)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise GameFormatError("must be a string when present", location="name")

    def _tensor(fieldname: str, shape: tuple[int, ...]) -> np.ndarray:
        try:
            arr = np.array(data[fieldname], dtype=float)
        except (TypeError, ValueError):
            raise GameFormatError("ragged or non-numeric array", location=fieldname) from None
        if arr.shape != shape:
            raise GameFormatError(
                f"shape {arr.shape} does not match the label counts {shape}", location=fieldname
            )
        return arr

    ns, ni, nj = len(data["states"]), len(data["actions1"]), len(data["actions2"])
    if min(ns, ni, nj) < 1:
        raise GameFormatError("states and action sets must be non-empty", location="states")
    payoff = _tensor("payoff", (ns, ni, nj))
    transition = _tensor("transition", (ns, ni, nj, ns))
    return StochasticGame(
        states=tuple(data["states"]),
        actions1=tuple(data["actions1"]),
        actions2=tuple(data["actions2"]),
        payoff=payoff,
        transition=transition,
        name=name,
    )


def serialize_game(game: StochasticGame) -> str:
    """Inverse of :func:`load_game`; numeric fields round-trip bit for bit."""
    data: dict = {}
    if game.name is not None:
        data["name"] = game.name
    data["states"] = list(game.states)
    data["actions1"] = list(game.actions1)
    data["actions2"] = list(game.actions2)
    data["payoff"] = game.payoff.tolist()
    data["transition"] = game.transition.tolist()
    return json.dumps(data, indent=2) + "\n"


def load_game_file(path) -> StochasticGame:
    with open(path, "r", encoding="utf-8") as handle:
        return load_game(handle.read())


def save_game_file(game: StochasticGame, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_game(game))
