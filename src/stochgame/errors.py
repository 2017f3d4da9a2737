"""Exception types shared across the package."""
from __future__ import annotations


class StochGameError(Exception):
    """Base class for every error raised by this package."""


class InputError(StochGameError, ValueError):
    """An argument or input value violates an operation's preconditions."""


class GameFormatError(InputError):
    """A game file failed to parse or is structurally malformed.

    ``location`` points at the offending line/field when known.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


class InvalidGameError(InputError):
    """A game violates a model invariant (bad shapes, bad transition rows, ...)."""


class ConvergenceError(StochGameError):
    """A solve missed its target: an iteration budget ran out or a certificate gap is too wide.

    Carries the last observed residual (or gap) and the iteration count so
    callers can report how far the solve got.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ScheduleNotReadyError(StochGameError):
    """No admissible block length exists at this horizon.

    The caller should fall back to the default square-root schedule; the
    threshold-based selection rule only kicks in for long enough horizons.
    """
