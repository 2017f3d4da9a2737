"""The traced run's exact counts repeat exactly for the same code and seed.

Runs a few jobs of each workload twice, each time in a fresh traced worker
process, and compares the counts that must not depend on timing.  Run with
``python3 -m pytest perfbench/test_exact_counts.py`` from the repository root.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
EXACT = (
    "matrix.solve_calls",
    "matrix.batch_items",
    "matrix.fallback_calls",
    "shapley.sweeps",
    "shapley.finite_stages",
    "adapted.solves",
    "evaluation.traj_stages",
    "evaluation.mc_path_stages",
    "cli.bytes_written",
)
#: small instance: three cheap commands, and the first game of the other two
SMALL = {
    "cli-session": "values-n,certify-corpus-two_state_cycle,gen-533",
    "wide-backward": "j00",
    "long-horizon-eval": "j00",
}


def traced_counts(workload: str, seed: int, work: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "trace", "--jobs", SMALL[workload], "--work", str(work)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["coverage_left"] == []
    assert report["self_check"] is None
    return {name: report["layers"][name] for name in EXACT}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_exact_counts_repeat(workload, tmp_path):
    first = traced_counts(workload, 7, tmp_path / "first")
    second = traced_counts(workload, 7, tmp_path / "second")
    assert first == second
    assert all(isinstance(value, int) for value in first.values())
    assert any(value > 0 for value in first.values())
