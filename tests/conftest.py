from __future__ import annotations

from pathlib import Path

import pytest

from stochgame import corpus, matrix

REPO_ROOT = Path(__file__).resolve().parent.parent
GAMES_DIR = REPO_ROOT / "games"

_acceptance_results: list[tuple[str, str]] = []


@pytest.fixture(scope="session")
def big_match_entry():
    return corpus.big_match()


@pytest.fixture(scope="session")
def mdp_entry():
    return corpus.single_player_mdp()


@pytest.fixture(scope="session")
def cycle_entry():
    return corpus.two_state_cycle()


@pytest.fixture(scope="session")
def games_dir() -> Path:
    return GAMES_DIR


@pytest.fixture
def simplex_calls(monkeypatch):
    """The matrices that reach the per-item simplex, recorded as they are solved."""
    calls = []
    real = matrix.solve_matrix_game
    monkeypatch.setattr(matrix, "solve_matrix_game", lambda M: calls.append(M) or real(M))
    return calls


def pytest_runtest_logreport(report):
    # collect one line per acceptance criterion for the session summary
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results.append((name, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(_acceptance_results):
        terminalreporter.write_line(f"ACCEPTANCE {name}: {outcome}")
