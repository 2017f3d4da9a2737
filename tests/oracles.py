"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the library's production code paths:
matrix games are solved by square-support enumeration, values by plain
python recursions, expectations by literal path enumeration or by stage
loops and matrix powers in long double, scalar fixed points by bisection,
and the weight-horizon by an exact rational scan.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Matrix games by support enumeration
# ---------------------------------------------------------------------------


def support_enumeration_solve(matrix):
    """(value, x, y) of a zero-sum matrix game by square-support search.

    Every matrix game has an optimal pair supported on a square submatrix,
    so scanning all equal-size support pairs and checking the equilibrium
    inequalities always finds one.
    """
    M = np.asarray(matrix, dtype=float)
    m, n = M.shape
    scale = max(1.0, np.abs(M).max())
    tol = 1e-8 * scale
    for size in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                # unknowns (x on rows, v): equal payoff on cols, mass 1
                A = np.zeros((size + 1, size + 1))
                b = np.zeros(size + 1)
                for a, j in enumerate(cols):
                    A[a, :size] = M[list(rows), j]
                    A[a, size] = -1.0
                A[size, :size] = 1.0
                b[size] = 1.0
                B = np.zeros((size + 1, size + 1))
                c = np.zeros(size + 1)
                for a, i in enumerate(rows):
                    B[a, :size] = M[i, list(cols)]
                    B[a, size] = -1.0
                B[size, :size] = 1.0
                c[size] = 1.0
                try:
                    sol_x = np.linalg.solve(A, b)
                    sol_y = np.linalg.solve(B, c)
                except np.linalg.LinAlgError:
                    continue
                x_part, v = sol_x[:size], sol_x[size]
                y_part, w = sol_y[:size], sol_y[size]
                if abs(v - w) > tol:
                    continue
                if x_part.min() < -tol or y_part.min() < -tol:
                    continue
                x = np.zeros(m)
                x[list(rows)] = np.maximum(x_part, 0.0)
                y = np.zeros(n)
                y[list(cols)] = np.maximum(y_part, 0.0)
                x /= x.sum()
                y /= y.sum()
                if (x @ M).min() < v - tol:
                    continue
                if (M @ y).max() > v + tol:
                    continue
                return float(v), x, y
    raise AssertionError("support enumeration found no equilibrium")


def support_enumeration_value(matrix) -> float:
    return support_enumeration_solve(matrix)[0]


# ---------------------------------------------------------------------------
# Value recursions
# ---------------------------------------------------------------------------


def finite_values_recursion(game, horizon):
    """v_1..v_n by plain-python backward induction over support-enum values."""
    ns, ni, nj = game.num_states, game.num_actions1, game.num_actions2
    g, q = game.payoff, game.transition
    v = [0.0] * ns
    out = []
    for r in range(1, horizon + 1):
        weight = 1.0 / r
        new = []
        for s in range(ns):
            local = [
                [
                    weight * g[s, i, j]
                    + (1.0 - weight) * sum(q[s, i, j, t] * v[t] for t in range(ns))
                    for j in range(nj)
                ]
                for i in range(ni)
            ]
            new.append(support_enumeration_value(local))
        v = new
        out.append(np.array(v))
    return out


def mdp_finite_values(game, horizon):
    """v_1..v_n for a single-opponent-action game, by plain max recursion."""
    assert game.num_actions2 == 1
    ns, ni = game.num_states, game.num_actions1
    g, q = game.payoff, game.transition
    v = [0.0] * ns
    out = []
    for r in range(1, horizon + 1):
        weight = 1.0 / r
        new = []
        for s in range(ns):
            best = max(
                weight * g[s, i, 0]
                + (1.0 - weight) * sum(q[s, i, 0, t] * v[t] for t in range(ns))
                for i in range(ni)
            )
            new.append(best)
        v = new
        out.append(np.array(v))
    return out


def mdp_discounted_value_iteration(game, discount, sweeps=200_000, tol=1e-13):
    """Discounted value of a single-opponent-action game by plain iteration."""
    assert game.num_actions2 == 1
    ns, ni = game.num_states, game.num_actions1
    g, q = game.payoff, game.transition
    v = np.zeros(ns)
    for _ in range(sweeps):
        new = np.array(
            [
                max(
                    discount * g[s, i, 0] + (1.0 - discount) * float(q[s, i, 0] @ v)
                    for i in range(ni)
                )
                for s in range(ns)
            ]
        )
        if np.abs(new - v).max() <= tol * discount:
            return new
        v = new
    raise AssertionError("oracle value iteration did not converge")


def mdp_policy_enumeration_discounted(game, discount):
    """Discounted value by evaluating every pure stationary policy exactly."""
    assert game.num_actions2 == 1
    ns, ni = game.num_states, game.num_actions1
    best = np.full(ns, -np.inf)
    for policy in itertools.product(range(ni), repeat=ns):
        kernel = np.array([game.transition[s, policy[s], 0] for s in range(ns)])
        rewards = np.array([game.payoff[s, policy[s], 0] for s in range(ns)])
        value = np.linalg.solve(np.eye(ns) - (1.0 - discount) * kernel, discount * rewards)
        best = np.maximum(best, value)
    return best


def bisection_big_match_discounted(discount, iterations=200):
    """Active-state discounted value of the classical 2x2 absorbing game.

    The absorbing states are constant games worth 1 and 0, so the active
    value solves v = val([[1, 0], [(1-d) v, d + (1-d) v]]); bisect on [0, 1].
    """

    def operator_gap(v):
        local = [
            [1.0, 0.0],
            [(1.0 - discount) * v, discount + (1.0 - discount) * v],
        ]
        return support_enumeration_value(local) - v

    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if operator_gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Exact expectations by path enumeration
# ---------------------------------------------------------------------------


def path_enumeration_stage_payoffs(game, sigma, rho, initial_state, horizon):
    """E[g_m] for m = 1..horizon by literal sum over all play paths."""
    ns, ni, nj = game.num_states, game.num_actions1, game.num_actions2
    g, q = game.payoff, game.transition
    stage_payoffs = np.zeros(horizon)

    def visit(stage, state, prob):
        if stage > horizon or prob == 0.0:
            return
        x = sigma.at_stage(stage).probs
        y = rho.at_stage(stage).probs
        for i in range(ni):
            for j in range(nj):
                p_act = prob * x[state, i] * y[state, j]
                if p_act == 0.0:
                    continue
                stage_payoffs[stage - 1] += p_act * g[state, i, j]
                for t in range(ns):
                    visit(stage + 1, t, p_act * q[state, i, j, t])

    visit(1, game.state_index(initial_state), 1.0)
    return stage_payoffs


def path_enumeration_discounted_cumulative(game, x, y, initial_state, discount, horizon):
    """Expected sum of d(1-d)^(m-1) g_m over m <= horizon, path by path."""
    from stochgame.game import MarkovStrategy

    sigma = MarkovStrategy.from_stationary(x, horizon)
    rho = MarkovStrategy.from_stationary(y, horizon)
    stage = path_enumeration_stage_payoffs(game, sigma, rho, initial_state, horizon)
    weights = discount * (1.0 - discount) ** np.arange(horizon)
    return float(weights @ stage)


def pure_markov_best_response_value(game, sigma, horizon):
    """Worst-case average payoff of sigma over all pure Markov replies.

    Against a fixed Markov strategy the opponent faces a finite-horizon
    decision problem, so pure Markov replies attain the minimum.
    """
    from stochgame.game import MarkovStrategy, StationaryStrategy

    ns, nj = game.num_states, game.num_actions2
    stage_choices = list(itertools.product(range(nj), repeat=ns))
    best = np.full(ns, np.inf)
    for reply in itertools.product(stage_choices, repeat=horizon):
        rho = MarkovStrategy.from_stages(
            [StationaryStrategy.pure(ns, nj, list(choice)) for choice in reply]
        )
        totals = np.array(
            [
                path_enumeration_stage_payoffs(game, sigma, rho, s, horizon).sum() / horizon
                for s in range(ns)
            ]
        )
        best = np.minimum(best, totals)
    return best


def stationary_discounted_payoff(game, x, y, discount):
    """Full discounted payoff of a stationary profile, by linear solve."""
    from stochgame.game import profile_stage_payoffs, profile_transition_matrix

    kernel = profile_transition_matrix(game, x, y)
    rewards = profile_stage_payoffs(game, x, y)
    ns = game.num_states
    return np.linalg.solve(np.eye(ns) - (1.0 - discount) * kernel, discount * rewards)


def expected_value_under_profile(game, x, y, values, num_stages):
    """E[values(state at stage m)] for m = 1..num_stages, from every start.

    Returns an array of shape (num_stages, states) whose row m-1, column s
    is the expectation when the chain induced by (x, y) starts at state s.
    """
    from stochgame.errors import InputError
    from stochgame.game import profile_transition_matrix

    if not isinstance(num_stages, int) or num_stages < 1:
        raise InputError("num_stages must be a positive integer")
    v = np.asarray(values, dtype=float)
    if v.shape != (game.num_states,):
        raise InputError("values must be a vector over the game's states")
    kernel = profile_transition_matrix(game, x, y)
    out = np.empty((num_stages, game.num_states))
    out[0] = v
    for m in range(1, num_stages):
        out[m] = kernel @ out[m - 1]
    return out


# ---------------------------------------------------------------------------
# Stationary chains in long double
# ---------------------------------------------------------------------------


def _long_double_chain(game, x, y):
    """(stage payoffs, transition matrix) of the stationary profile (x, y), in long double."""
    L = np.longdouble
    xs, ys = x.probs.astype(L), y.probs.astype(L)
    rewards = np.einsum("si,sj,sij->s", xs, ys, game.payoff.astype(L))
    kernel = np.einsum("si,sj,sijt->st", xs, ys, game.transition.astype(L))
    return rewards, kernel


def long_double_discounted_cumulative(game, x, y, initial_state, discount, stage_counts):
    """{M: sum_{m<=M} d(1-d)^(m-1) E[g_m]} for each M in ``stage_counts``, by one
    forward stage loop on the state distribution in long double."""
    rewards, kernel = _long_double_chain(game, x, y)
    d = np.longdouble(discount)
    dist = np.zeros(game.num_states, dtype=np.longdouble)
    dist[game.state_index(initial_state)] = 1
    total, weight, out = np.longdouble(0), d, {}
    for m in range(1, max(stage_counts) + 1):
        total += weight * (dist @ rewards)
        dist = dist @ kernel
        weight *= 1 - d
        if m in stage_counts:
            out[m] = float(total)
    return out


def long_double_far_stage(game, x, y, values, stage):
    """E[values(state at ``stage``)] from every start: the profile's transition
    matrix raised to ``stage - 1`` by square-and-multiply in long double."""
    _, kernel = _long_double_chain(game, x, y)
    power = np.eye(game.num_states, dtype=np.longdouble)
    k = stage - 1
    while k:
        if k & 1:
            power = power @ kernel
        kernel = kernel @ kernel
        k >>= 1
    return (power @ np.asarray(values, dtype=np.longdouble)).astype(float)


# ---------------------------------------------------------------------------
# Weight horizon by exact rational scan
# ---------------------------------------------------------------------------


def weight_horizon_scan(discount, fraction, cap=10**6):
    """inf{M >= 1 : sum_{m<=M} d(1-d)^(m-1) >= fraction} in exact arithmetic."""
    d = Fraction(discount)
    target = Fraction(fraction)
    term = d
    total = Fraction(0)
    m = 0
    while m < cap:
        m += 1
        total += term
        if total >= target:
            return m
        term *= 1 - d
    raise AssertionError("scan cap exceeded")


# ---------------------------------------------------------------------------
# Exact rational backward recursions
# ---------------------------------------------------------------------------


def _exact_game(game):
    """Payoffs and transitions as nested lists of Fractions, each equal to its double."""
    payoff = [[[Fraction(g) for g in row] for row in state] for state in game.payoff.tolist()]
    transition = [[[[Fraction(p) for p in cell] for cell in row] for row in state] for state in game.transition.tolist()]
    return payoff, transition


def _exact_expectation(probs, values):
    return sum(p * v for p, v in zip(probs, values) if p)


def exact_value_2x2(a, b, c, d):
    """Value of [[a, b], [c, d]] by Shapley & Snow (1950): the saddle value if
    there is one, else (ad - bc) / (a + d - b - c)."""
    low = max(min(a, b), min(c, d))
    if low == min(max(a, c), max(b, d)):
        return low
    return (a * d - b * c) / (a + d - b - c)


def exact_finite_values(game, horizon):
    """v_1..v_n of a 2x2 game in exact rational arithmetic, as lists of Fractions.

    Stage r weights the payoff by exactly 1/r; the double inputs are read
    exactly.  The denominators stay small only on games like the corpus ones,
    whose local games are saddles or have few distinct entries.
    """
    assert game.payoff.shape[1:] == (2, 2)
    payoff, transition = _exact_game(game)
    v = [Fraction(0)] * game.num_states
    out = []
    for r in range(1, horizon + 1):
        weight = Fraction(1, r)
        local = [
            [[weight * g + (1 - weight) * _exact_expectation(q, v) for g, q in zip(grow, qrow)]
             for grow, qrow in zip(gs, qs)]
            for gs, qs in zip(payoff, transition)
        ]
        v = [exact_value_2x2(L[0][0], L[0][1], L[1][0], L[1][1]) for L in local]
        out.append(v)
    return out


def exact_guarantee_levels(game, sigma, horizon):
    """Best-response levels of Player 1's Markov strategy ``sigma`` in exact
    rational arithmetic: row m - 1 is the worst average payoff over stages m..n,
    row n the zero terminal; the strategy's doubles are read exactly."""
    payoff, transition = _exact_game(game)
    w = [Fraction(0)] * game.num_states
    levels = [w]
    for m in range(horizon, 0, -1):
        weight = Fraction(1, horizon - m + 1)
        x = [[Fraction(p) for p in row] for row in sigma.at_stage(m).probs.tolist()]
        w = [
            min(
                _exact_expectation(xs, [weight * gs[i][j] + (1 - weight) * _exact_expectation(qs[i][j], w)
                                        for i in range(len(xs))])
                for j in range(len(gs[0]))
            )
            for xs, gs, qs in zip(x, payoff, transition)
        ]
        levels.append(w)
    return levels[::-1]


def exact_error(got, exact) -> Fraction:
    """Largest |got - exact| over a float table and a table of Fractions, exactly."""
    return max(abs(Fraction(float(g)) - e) for grow, erow in zip(got, exact) for g, e in zip(grow, erow))
