"""Independent references for the benchmark's correctness gate.

Nothing here calls into ``stochgame``: the checks take the game tensors and
the strategies a job returned and recompute what they imply with plain
numpy recursions, so a fast but wrong change cannot pass by agreeing with
itself.
"""
from __future__ import annotations

import json
import math

import numpy as np


def small_matrix_value(matrix) -> float:
    """Value of a zero-sum matrix game with at most two rows or two columns.

    Scans the lower envelope of the opponent's pure replies at every
    breakpoint of the one-parameter mixed strategy.
    """
    M = np.asarray(matrix, dtype=float)
    rows, cols = M.shape
    if rows == 1:
        return float(M.min())
    if cols == 1:
        return float(M.max())
    if rows != 2:
        if cols != 2:
            raise ValueError("small_matrix_value needs two rows or two columns")
        return -small_matrix_value(-M.T)
    top, bottom = M[0], M[1]
    candidates = {0.0, 1.0}
    for j in range(cols):
        for k in range(j + 1, cols):
            slope = (top[j] - bottom[j]) - (top[k] - bottom[k])
            if slope != 0.0:
                p = (bottom[k] - bottom[j]) / slope
                if 0.0 < p < 1.0:
                    candidates.add(float(p))
    return max(float((p * top + (1.0 - p) * bottom).min()) for p in candidates)


def n_stage_values(payoff, transition, horizon: int) -> np.ndarray:
    """Cesaro n-stage values by backward induction with ``small_matrix_value``."""
    v = np.zeros(payoff.shape[0])
    for r in range(1, horizon + 1):
        local = payoff / r + (1.0 - 1.0 / r) * (transition @ v)
        v = np.array([small_matrix_value(m) for m in local])
    return v


def discounted_values(payoff, transition, discount: float, tol: float = 1e-13) -> np.ndarray:
    """Discounted values by value iteration with ``small_matrix_value``."""
    v = np.zeros(payoff.shape[0])
    while True:
        local = discount * payoff + (1.0 - discount) * (transition @ v)
        w = np.array([small_matrix_value(m) for m in local])
        if np.abs(w - v).max() <= tol * discount:
            return w
        v = w


def stage_strategies(markov, horizon: int) -> list[np.ndarray]:
    """Expand a run-length Markov strategy into one probability table per stage."""
    out: list[np.ndarray] = []
    for length, strat in markov.segments:
        out.extend([np.asarray(strat.probs)] * length)
    return out[:horizon]


def response_bounds(payoff, transition, x_stages, y_stages) -> tuple[np.ndarray, np.ndarray]:
    """What a Markov profile guarantees each side in the n-stage game.

    ``low[s]`` is Player 1's guarantee from ``x_stages`` against a best
    responding Player 2, ``high[s]`` the most Player 2's ``y_stages``
    concedes; both use stage weight 1/r with r stages remaining.  For an
    optimal profile ``low == high == v_n``; ``high - low`` is the profile's
    duality gap and never negative.
    """
    horizon = len(x_stages)
    low = np.zeros(payoff.shape[0])
    high = np.zeros(payoff.shape[0])
    for m in range(horizon, 0, -1):
        weight = 1.0 / (horizon - m + 1)
        x, y = x_stages[m - 1], y_stages[m - 1]
        local_low = weight * payoff + (1.0 - weight) * (transition @ low)
        local_high = weight * payoff + (1.0 - weight) * (transition @ high)
        low = np.einsum("si,sij->sj", x, local_low).min(axis=1)
        high = np.einsum("sj,sij->si", y, local_high).max(axis=1)
    return low, high


def stationary_chain(payoff, transition, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Per-state expected payoff and state kernel of a stationary profile."""
    rewards = np.einsum("si,sj,sij->s", x, y, payoff)
    kernel = np.einsum("si,sj,sijt->st", x, y, transition)
    return rewards, kernel


def forward_payoffs(rewards, kernel, start: int, horizon: int, values=None):
    """Expected stage payoffs (and E[values(state)] for stages 1..n+1)."""
    dist = np.zeros(len(rewards))
    dist[start] = 1.0
    stage = np.empty(horizon)
    curve = np.empty(horizon + 1) if values is not None else None
    for m in range(horizon):
        if curve is not None:
            curve[m] = dist @ values
        stage[m] = dist @ rewards
        dist = dist @ kernel
    if curve is not None:
        curve[horizon] = dist @ values
    return stage, curve


def shapley_certificate(payoff, transition, discount, value, x, y) -> float:
    """Largest distance of ``value`` from the one-step guarantees of (x, y).

    With G_s = discount * g_s + (1 - discount) * P_s value, Player 1's
    strategy guarantees min_j (x_s G_s)_j and Player 2's concedes at most
    max_i (G_s y_s)_i; the Shapley operator lies between the two, so this is
    an upper bound on the fixed-point residual that trusts neither the
    solver's stopping rule nor its own residual field.
    """
    local = discount * payoff + (1.0 - discount) * (transition @ value)
    low = np.einsum("si,sij->sj", x, local).min(axis=1)
    high = np.einsum("sj,sij->si", y, local).max(axis=1)
    return float(max((high - value).max(), (value - low).max()))


def read_game_file(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Game file parsed with the json module only: (raw, payoff, transition)."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return raw, np.array(raw["payoff"], dtype=float), np.array(raw["transition"], dtype=float)


def default_block_length(horizon: int) -> int:
    """ceil(sqrt(n)), the paper's default block length."""
    return math.ceil(math.sqrt(horizon))
