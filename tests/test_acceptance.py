"""Acceptance suite: one test per criterion, run with ``pytest tests/test_acceptance.py``.

A PASS/FAIL line per criterion is printed in the terminal summary (see
conftest).  Heavy artifacts (discounted solves, block profiles, limit-value
estimates) are shared across criteria through module-scoped fixtures.

Monotonicity comparisons ("non-increasing over the horizon grid") carry an
additive slack of 1e-6 * max(1, max_abs_payoff): the compared quantities are
measured against an estimated limit value, so orderings below that scale are
estimation noise, not signal.  All hard bounds are asserted exactly.
"""
import itertools
import json
import time

import numpy as np
import pytest

from stochgame import (
    DiscountedProfileProvider,
    StationaryStrategy,
    adapted_profile,
    block_weight_mass,
    certify_epsilon_optimality,
    constant_payoff_curve,
    discounted_cumulative_payoff,
    discounted_value,
    finite_values,
    limit_value_estimate,
    monte_carlo_payoff,
    solve_matrix_game,
    stages_to_weight,
    trajectory,
    value_drift_diagnostic,
)
from stochgame.cli import main
from stochgame.corpus import big_match, random_game, single_player_mdp

from oracles import (
    bisection_big_match_discounted,
    finite_values_recursion,
    mdp_finite_values,
    support_enumeration_solve,
    weight_horizon_scan,
)

T_GRID = tuple(k / 10 for k in range(1, 10))
SOLVE_TOL = 1e-8
VSTAR_GRID = (1e-1, 1e-2, 1e-3, 1e-4)

GAME_BUILDERS = {
    "big_match": lambda: big_match().game,
    "random_2_2_2_seed7": lambda: random_game(2, 2, 2, seed=7).game,
    "random_3_2_2_seed11": lambda: random_game(3, 2, 2, seed=11).game,
}


def mono_slack(game) -> float:
    return 1e-6 * max(1.0, game.max_abs_payoff)


@pytest.fixture(scope="module")
def games():
    return {name: build() for name, build in GAME_BUILDERS.items()}


@pytest.fixture(scope="module")
def providers(games):
    return {name: DiscountedProfileProvider(game, tol=SOLVE_TOL) for name, game in games.items()}


@pytest.fixture(scope="module")
def profiles(games, providers):
    cache = {}

    def get(name, horizon):
        key = (name, horizon)
        if key not in cache:
            cache[key] = adapted_profile(games[name], horizon, provider=providers[name])
        return cache[key]

    return get


@pytest.fixture(scope="module")
def limit_values(games):
    return {
        name: limit_value_estimate(game, VSTAR_GRID, tol=SOLVE_TOL)
        for name, game in games.items()
    }


def test_c01_matrix_solver_matches_support_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        rows, cols = rng.integers(1, 5, size=2)
        matrix = rng.uniform(-3, 3, size=(rows, cols))
        sol = solve_matrix_game(matrix)
        oracle_value, _, _ = support_enumeration_solve(matrix)
        assert abs(sol.value - oracle_value) <= 1e-8
        assert (sol.row_strategy @ matrix).min() >= sol.value - sol.certificate_gap - 1e-12
        assert (matrix @ sol.col_strategy).max() <= sol.value + sol.certificate_gap + 1e-12
    assert time.monotonic() - start < 5.0


def test_c02_shapley_fixed_point_and_contraction():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for _ in range(50):
        game = random_game(int(rng.integers(1, 4)), 2, 2, int(rng.integers(0, 10**6))).game
        discount = float(rng.uniform(0.02, 0.9))
        sol = discounted_value(game, discount, tol=1e-8)
        assert sol.residual <= 1e-8 * discount
    from stochgame import shapley_operator

    for _ in range(200):
        game = random_game(2, 2, 2, int(rng.integers(0, 10**6))).game
        discount = float(rng.uniform(0.02, 0.98))
        v = rng.uniform(-2, 2, 2)
        w = rng.uniform(-2, 2, 2)
        gap = np.abs(shapley_operator(game, discount, v) - shapley_operator(game, discount, w)).max()
        assert gap <= (1 - discount) * np.abs(v - w).max() + 1e-10
    assert time.monotonic() - start < 30.0


def test_c03_finite_horizon_exactness():
    for shape in itertools.product((1, 2), repeat=3):
        for seed in (0, 1, 2):
            game = random_game(*shape, seed=seed).game
            oracle = finite_values_recursion(game, 4)
            got = finite_values(game, 4)
            for m in range(4):
                assert np.abs(got[m] - oracle[m]).max() <= 1e-10
    mdp = single_player_mdp().game
    oracle = mdp_finite_values(mdp, 20)
    got = finite_values(mdp, 20)
    for m in range(20):
        assert np.abs(got[m] - oracle[m]).max() <= 1e-12


def test_c04_big_match_values(games):
    start = time.monotonic()
    game = games["big_match"]
    for discount in (1e-1, 1e-2, 1e-3):
        oracle = bisection_big_match_discounted(discount)
        sol = discounted_value(game, discount, tol=SOLVE_TOL)
        assert abs(sol.value[0] - oracle) <= 1e-5
        assert abs(sol.value[0] - 0.5) <= 1e-5
    table = finite_values(game, 1000)
    oracle = bisection_big_match_discounted(1e-3)
    for horizon in (10, 100, 1000):
        assert abs(table[horizon - 1][0] - oracle) <= 1e-5
    assert time.monotonic() - start < 60.0


def test_c05_adapted_profiles_are_asymptotically_optimal(games, profiles):
    start = time.monotonic()
    for name, game in games.items():
        eps = {}
        for horizon in (50, 200, 800):
            profile = profiles(name, horizon)
            assert profile.schedule.block_length == int(np.ceil(np.sqrt(horizon)))
            eps[horizon] = certify_epsilon_optimality(game, profile, horizon)
        slack = mono_slack(game)
        assert eps[200] <= eps[50] + slack, (name, eps)
        assert eps[800] <= eps[200] + slack, (name, eps)
        assert eps[800] <= max(eps[50] / 2, 1e-6), (name, eps)
    assert time.monotonic() - start < 300.0


def test_c06_constant_payoff_deviation_shrinks(games, profiles, limit_values):
    start = time.monotonic()
    for name, game in games.items():
        vstar = limit_values[name].value
        sup = {}
        for horizon in (100, 400, 1600):
            curve = constant_payoff_curve(
                game, profiles(name, horizon), 0, horizon, T_GRID, vstar
            )
            sup[horizon] = curve.sup_deviation
        slack = mono_slack(game)
        assert sup[400] <= sup[100] + slack, (name, sup)
        assert sup[1600] <= sup[400] + slack, (name, sup)
        assert sup[1600] <= 0.1 * game.max_abs_payoff, (name, sup)
    assert time.monotonic() - start < 600.0


def test_c07_value_drift_shrinks_and_meets_block_bound(games, profiles, limit_values):
    for name, game in games.items():
        vstar = limit_values[name].value
        drift = {}
        blocks = {}
        for horizon in (100, 400, 1600):
            report = value_drift_diagnostic(
                game, profiles(name, horizon), 0, horizon, T_GRID, vstar
            )
            drift[horizon] = report.sup_drift
            blocks[horizon] = profiles(name, horizon).schedule.num_blocks
        slack = mono_slack(game)
        assert drift[400] <= drift[100] + slack, (name, drift)
        assert drift[1600] <= drift[400] + slack, (name, drift)
        assert drift[1600] <= 4.0 / blocks[1600] * game.max_abs_payoff, (name, drift)


def test_c08_weight_horizon_formula_equals_bruteforce():
    start = time.monotonic()
    for discount in np.linspace(0.015, 0.97, 50):
        for fraction in np.linspace(0.0, 0.975, 50):
            assert stages_to_weight(float(discount), float(fraction)) == weight_horizon_scan(
                float(discount), float(fraction)
            )
    assert time.monotonic() - start < 1.0


def test_c09_discounted_constant_payoff_improves(games, providers):
    game = games["big_match"]
    target = bisection_big_match_discounted(1e-3)
    sups = {}
    for discount in (1e-1, 1e-3):
        x, y = providers["big_match"].profile(discount)
        sups[discount] = max(
            abs(discounted_cumulative_payoff(game, x, y, 0, discount, t) - t * target)
            for t in T_GRID
        )
    assert sups[1e-3] <= 0.5 * sups[1e-1], sups


def test_c09_discounted_constant_payoff_at_small_discount(games, providers):
    # every stage pays 1/2 in expectation under the optimal profile, so at 1e-6
    # (about 2.3 million stages at t = 0.9) only the weight's overshoot of t,
    # less than the discount, separates the cumulative payoff from t/2
    game = games["big_match"]
    sups = {}
    for discount in (1e-3, 1e-6):
        x, y = providers["big_match"].profile(discount)
        sups[discount] = max(
            abs(discounted_cumulative_payoff(game, x, y, 0, discount, t) - t / 2) for t in T_GRID
        )
    assert sups[1e-6] <= 0.5 * sups[1e-3], sups
    assert sups[1e-6] <= 1e-6 / 2 + 2e-11, sups


def test_c10_block_weight_mass_bound():
    for block_length in range(2, 10_001):
        assert block_weight_mass(block_length) <= 7.0 / 8.0


def test_c11_monte_carlo_matches_exact():
    for seed in range(5):
        game = random_game(2, 2, 2, seed=100 + seed).game
        rng = np.random.default_rng(seed)
        x = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
        y = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
        exact = trajectory(game, x, y, 0, 30).total_payoff
        mean, stderr = monte_carlo_payoff(game, (x, y), 0, 30, trials=10_000, seed=seed)
        assert abs(mean - exact) <= 4 * max(stderr, 1e-12)


def test_c12_cli_manifest_reproducibility(tmp_path, games_dir):
    commands = {
        "values": ["values", "--corpus", "big_match", "--lambda-grid", "1e-1,1e-2,1e-3"],
        "adapted": ["adapted", "--corpus", "big_match", "--n-grid", "20,40"],
        "curve": ["curve", "--corpus", "two_state_cycle", "--n", "30", "--t-grid", "0.25,0.5,0.75"],
        "certify": ["certify", "--corpus", "two_state_cycle", "--n", "30"],
        "gen": ["gen", "--states", "2", "--actions1", "2", "--actions2", "2", "--seed", "7"],
    }
    for name, argv in commands.items():
        first = tmp_path / name / "first"
        second = tmp_path / name / "second"
        assert main(argv + ["--out", str(first)]) == 0, name
        assert main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 0, name
        first_files = {p.name: p.read_bytes() for p in sorted(first.iterdir())}
        second_files = {p.name: p.read_bytes() for p in sorted(second.iterdir())}
        assert first_files == second_files, name
        manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == name
