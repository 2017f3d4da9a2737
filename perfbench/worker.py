"""One benchmark workload process: set up, run rounds of jobs, check, report.

Run by ``run.py`` in a fresh interpreter with a pinned environment.  Modes:

* ``probe``: set up and report the set-up time only;
* ``run``:   untraced rounds until ``--seconds`` would be exceeded (at least
  one round, or exactly ``--rounds``);
* ``trace``: one traced round, spans recorded from before set-up.

Prints one JSON object on its last stdout line.
"""
import time

T0 = time.perf_counter()  # before numpy and stochgame are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_round(jobs):
    """Run the jobs back to back; return (wall, latencies, results, errors)."""
    latencies, results, errors = [], [], []
    began = time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        try:
            results.append(job.run())
            errors.append(None)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            results.append(None)
            errors.append(f"raised {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    return time.perf_counter() - began, latencies, results, errors


def _check_round(jobs, results, errors) -> list[dict]:
    failures = []
    for job, result, error in zip(jobs, results, errors):
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"job": job.name, "reason": error, "known_defect": job.known_defect})
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0, help="exact round count (0: fill --seconds)")
    parser.add_argument("--jobs", default="",
                        help="comma-separated job names (or name prefixes before a '-') to keep")
    parser.add_argument("--work", required=True, help="scratch directory for CLI outputs")
    parser.add_argument("--trace-out", help="where the traced run saves its spans (.npz)")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = Path(args.work)
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        originals = spans.install(tracer)
    window_start = time.perf_counter()

    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    workload.setup()
    setup_s = time.perf_counter() - T0
    report = {
        "setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stochgame_workers": os.environ.get("STOCHGAME_WORKERS"),
    }
    if args.mode == "probe":
        print(json.dumps(report))
        return 0

    rounds = []
    started = time.perf_counter()
    index = 0
    while True:
        jobs = workload.jobs(index)
        if args.jobs:
            keep = args.jobs.split(",")
            jobs = [j for j in jobs if any(j.name == k or j.name.startswith(k + "-") for k in keep)]
        wall, latencies, results, errors = _run_round(jobs)
        window_end = time.perf_counter()
        bytes_written = workloads.output_bytes(work / f"r{index}")
        failures = _check_round(jobs, results, errors)
        rounds.append({"wall_s": wall, "latencies": latencies, "jobs": [j.name for j in jobs],
                       "failures": failures, "bytes_written": bytes_written})
        del results
        index += 1
        if args.mode == "trace" or (args.rounds and index >= args.rounds):
            break
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in rounds)
        if not args.rounds and elapsed + typical > args.seconds:
            break
    report["rounds"] = rounds
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        window = window_end - window_start
        metrics, notes, self_sum = spans.layer_metrics(tracer, window)
        metrics["cli.bytes_written"] = rounds[0]["bytes_written"]
        report["layers"] = metrics
        report["notes"] = notes
        report["trace_window_s"] = window
        report["self_check"] = spans.self_time_check(metrics, self_sum, window)
        report["self_sum_s"] = self_sum
        report["coverage_left"] = spans.unwrapped_holders(originals)
        if args.trace_out:
            tracer.save(args.trace_out)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
