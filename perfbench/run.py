"""stochgame benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each one exists):
``cli-session``, ``wide-backward`` and ``long-horizon-eval``.

``--trace 0`` prints the end-to-end metrics: set-up time (median of several
fresh processes), round wall time, median and tail job latency, peak RSS.
``--trace 1`` runs one untraced round and one traced round of the same jobs
and prints the per-layer metrics plus the tracing overhead.  Every job is
checked outside its timing; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-session", "wide-backward", "long-horizon-eval")
#: fresh processes that only set up, besides the measuring one
SETUP_PROBES = 8
#: every run must end within this many seconds
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
REQUIRED = ("src/stochgame/__init__.py", "src/stochgame/cli.py", "games/big_match.json",
            "games/random_2_2_2_seed7.json", "games/single_player_mdp.json",
            "games/two_state_cycle.json")


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    """The workload environment: no process pool, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env.pop("STOCHGAME_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_worker(args, mode: str, deadline: float, **extra) -> dict:
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}-{mode}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--work", str(work)]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s budget") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise BenchError(f"{mode} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def job_stats(rounds: list[dict]) -> dict:
    """Median and tail job latency over the jobs of every round.

    The tail is the highest percentile that still has ten jobs of one round
    beyond it; it is fixed per workload by the round size, so more rounds
    sample the same percentile more often instead of moving it.
    """
    per_round = len(rounds[0]["latencies"])
    pooled = sorted(lat for r in rounds for lat in r["latencies"])
    fraction = (per_round - 10) / per_round
    rank = max(1, math.ceil(fraction * len(pooled) - 1e-9))
    return {
        "job_p50_s": statistics.median(pooled),
        "job_tail_s": pooled[rank - 1],
        "tail_pct": 100.0 * fraction,
        "per_round": per_round,
        "pooled": len(pooled),
    }


def failures_of(report: dict) -> tuple[int, int, list[dict]]:
    attempted = sum(len(r["latencies"]) for r in report["rounds"])
    failures = [f for r in report["rounds"] for f in r["failures"]]
    return attempted, len(failures), failures


def describe_failures(failures: list[dict], where: str = "") -> list[str]:
    lines = []
    for f in failures:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        lines.append(f"  failed job {where}{f['job']} ({tag}): {f['reason']}")
    return lines


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    # half the set-up probes before the measured run and half after it, so that
    # the median does not hang on one moment of the machine's load
    probes = [run_worker(args, "probe", deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    report = run_worker(args, "run", deadline, seconds=args.seconds)
    probes += [run_worker(args, "probe", deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    setups = probes + [report["setup_s"]]
    rounds = report["rounds"]
    jobs = job_stats(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "job_p50_s": (jobs["job_p50_s"], "s"),
        "job_tail_s": (jobs["job_tail_s"], "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    attempted, failed, failures = failures_of(report)
    lines = [
        f"closed loop: 1 client, {len(rounds)} round(s) of {jobs['per_round']} jobs",
        f"setup_s     {metrics['setup_s'][0]:.4f} s    median of {len(setups)} fresh processes "
        f"(import, load/generate games, one warm-up call)",
        f"wall_s      {metrics['wall_s'][0]:.4f} s    wall time of one round (median over rounds)",
        f"job_p50_s   {metrics['job_p50_s'][0]:.4f} s    median job latency over {jobs['pooled']} jobs",
        f"job_tail_s  {metrics['job_tail_s'][0]:.4f} s    p{jobs['tail_pct']:.1f} job latency over "
        f"{jobs['pooled']} jobs (in a round of {jobs['per_round']}, 10 jobs lie beyond it)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB   ru_maxrss of the workload process",
        f"failed_frac {failed / attempted:.4f}        {failed} of {attempted} jobs failed "
        f"(in the JSON as attempted/failed, not as a metric: it is 0 on most workloads)",
    ]
    lines += describe_failures(failures)
    lines.append("job latencies (s), round 0: " + ", ".join(
        f"{name} {lat:.3f}" for name, lat in zip(rounds[0]["jobs"], rounds[0]["latencies"])))
    return metrics, {"attempted": attempted, "failed": failed, "failures": failures,
                     "report": report}, lines


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    plain = run_worker(args, "run", deadline, rounds=1)
    trace_dir = HERE / "_work"
    trace_dir.mkdir(exist_ok=True)
    trace_out = trace_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    traced = run_worker(args, "trace", deadline, trace_out=trace_out)
    if traced["coverage_left"]:
        raise BenchError(f"unwrapped functions remain: {traced['coverage_left']}")
    if traced["self_check"]:
        raise BenchError(traced["self_check"])
    layers = dict(traced["layers"])
    traced_wall = traced["rounds"][0]["wall_s"]
    plain_wall = plain["rounds"][0]["wall_s"]
    layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    layers.pop("trace.spans")
    units = {"_s": "s", "_us": "us", "_us_per_item": "us", "_us_per_stage": "us",
             "_ns_per_path_stage": "ns", "_frac": "ratio", "_rel": "ratio", "_margin": "ratio",
             "bytes_written": "B"}
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    attempted, failed, failures = failures_of(traced)
    p_att, p_failed, p_failures = failures_of(plain)
    lines = [
        f"traced round: {len(traced['rounds'][0]['latencies'])} jobs, {traced['layers']['trace.spans']} spans "
        f"saved to {trace_out.relative_to(ROOT)}",
        f"untraced round wall {plain_wall:.4f} s, traced round wall {traced_wall:.4f} s",
        f"self-time check: sum of layer self_s {traced['self_sum_s']:.4f} s + benchmark "
        f"{layers['trace.bench_self_s']:.4f} s = traced window {traced['trace_window_s']:.4f} s",
        "wrapper coverage: no stochgame module holds an unwrapped public function",
    ]
    for name, (value, unit) in metrics.items():
        note = traced["notes"].get(name, "")
        lines.append(f"{name:32s} {value:.6g} {unit}  {note}".rstrip())
    lines += describe_failures(p_failures, "(untraced round) ")
    lines += describe_failures(failures, "(traced round) ")
    return metrics, {"attempted": attempted + p_att, "failed": failed + p_failed,
                     "failures": failures + p_failures, "report": traced}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    identity = source_identity()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, outcome, lines = measure(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report = outcome["report"]
    unexpected = [f for f in outcome["failures"] if not f["known_defect"]]

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: python {report['python']}, numpy {report['numpy']}, nproc {nproc}, "
          f"os.cpu_count() {os.cpu_count()}, commit {identity['commit']}, src sha256 {identity['src_sha256']}")
    workers = report["stochgame_workers"] or "unset"
    print(f"pinned: STOCHGAME_WORKERS {workers} in the workload process, BLAS/OpenMP threads 1; "
          "the process-pool path (STOCHGAME_WORKERS > 1) is not measured here")
    for line in lines:
        print(line)
    result = {
        "correct": not unexpected,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
