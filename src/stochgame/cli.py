"""Command-line surface: reproducible solver runs emitting CSV/JSON.

Commands::

    values   v_n over an n-grid and/or v_lambda over a discount grid
    adapted  block-discounted profiles and their optimality gaps
    curve    cumulative-payoff curves against the line t * v*
    certify  one-horizon certification report (gap, deviation, drift)
    gen      emit a seeded random game file
    rerun    re-execute a recorded run from its manifest

Every run writes its outputs plus a ``manifest.json`` (config, package
version, input file hashes) into ``--out DIR``; re-running a manifest
reproduces every output byte for byte.  Exit codes: 0 ok, 2 input error,
3 convergence failure; errors are emitted as one JSON object on stderr.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .adapted import (
    DiscountThresholds,
    DiscountedProfileProvider,
    adapted_profile,
    default_block_length,
    select_block_length,
)
from .corpus import get_corpus_entry, random_game
from .errors import ConvergenceError, InputError, ScheduleNotReadyError, StochGameError
from .evaluation import (
    certify_epsilon_optimality,
    constant_payoff_curve,
    discounted_cumulative_payoff,
    value_drift_diagnostic,
)
from .game import load_game_file, save_game_file
from .shapley import discounted_value, finite_values, limit_value_from_solutions

_CSV_SCHEMA = "stochgame-csv v1"
_MANIFEST_SCHEMA = "stochgame-manifest v1"
_DEFAULT_T_GRID = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
_DEFAULT_VSTAR_GRID = "1e-1,1e-2,1e-3"


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_grid(text: str, kind, what: str) -> list:
    try:
        grid = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"{what} must be a comma-separated list") from None
    if not grid:
        raise InputError(f"{what} must be non-empty")
    increasing = all(a < b for a, b in zip(grid, grid[1:]))
    decreasing = all(a > b for a, b in zip(grid, grid[1:]))
    if len(grid) > 1 and not (increasing or decreasing):
        raise InputError(f"{what} must be strictly monotone")
    return grid


def _load_config_game(config: dict):
    if config.get("corpus"):
        return get_corpus_entry(config["corpus"]).game
    return load_game_file(config["game"])


def _config_inputs(config: dict) -> list[str]:
    paths = []
    if config.get("game"):
        paths.append(config["game"])
    if config.get("mu_file"):
        paths.append(config["mu_file"])
    return paths


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return f"sha256:{digest.hexdigest()}"


def _write_manifest(out_dir: Path, command: str, config: dict) -> None:
    manifest = {
        "schema": _MANIFEST_SCHEMA,
        "package_version": __version__,
        "command": command,
        "config": config,
        "inputs": {path: _sha256(path) for path in _config_inputs(config)},
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _csv_text(command: str, header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    buffer.write(f"# {_CSV_SCHEMA} {command}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


def _json_text(command: str, header: list[str], rows: list[list]) -> str:
    payload = {
        "schema": f"stochgame-json v1 {command}",
        "columns": header,
        "rows": rows,
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_table(out_dir: Path, command: str, name: str, fmt: str, header, rows) -> None:
    if fmt == "json":
        _write_text(out_dir / f"{name}.json", _json_text(command, header, rows))
    else:
        _write_text(out_dir / f"{name}.csv", _csv_text(command, header, rows))


def _load_thresholds(path: str) -> DiscountThresholds:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "thresholds" not in data:
        raise InputError(f"{path}: threshold file needs a 'thresholds' array")
    return DiscountThresholds(
        tuple(float(v) for v in data["thresholds"]),
        str(data.get("provenance", "file")),
        bool(data.get("approximate", False)),
    )


def _pick_block_length(config: dict, horizon: int) -> int:
    raw = config.get("a", "auto")
    if raw != "auto":
        return int(raw)
    if config.get("mu_file"):
        try:
            return select_block_length(horizon, _load_thresholds(config["mu_file"]))
        except ScheduleNotReadyError:
            return default_block_length(horizon)
    return default_block_length(horizon)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_values(config: dict, out_dir: Path) -> None:
    game = _load_config_game(config)
    rows: list[list] = []
    if config.get("n_grid"):
        table = finite_values(game, max(config["n_grid"]))
        for n in config["n_grid"]:
            for s, state in enumerate(game.states):
                rows.append(["n", n, state, float(table[n - 1, s])])
    if config.get("lambda_grid"):
        grid = config["lambda_grid"]
        solutions = [discounted_value(game, d, config["tol"]) for d in grid]
        for discount, sol in zip(grid, solutions):
            for s, state in enumerate(game.states):
                rows.append(["lambda", discount, state, float(sol.value[s])])
        if grid[-1] <= 1e-3 and (len(grid) == 1 or grid[0] > grid[-1]):
            estimate = limit_value_from_solutions(solutions)
            limit = {
                "discounts": list(estimate.discounts),
                "dispersion": estimate.dispersion,
                "value": {state: float(v) for state, v in zip(game.states, estimate.value)},
            }
            _write_text(out_dir / "limit.json", json.dumps(limit, indent=2) + "\n")
    if not rows:
        raise InputError("values needs --n/--n-grid and/or --lambda/--lambda-grid")
    _write_table(out_dir, "values", "values", config["format"], ["kind", "param", "state", "value"], rows)


def _cmd_adapted(config: dict, out_dir: Path) -> None:
    game = _load_config_game(config)
    provider = DiscountedProfileProvider(game, config["tol"])
    rows: list[list] = []
    for n in config["n_grid"]:
        profile = adapted_profile(game, n, _pick_block_length(config, n), provider=provider)
        epsilon = certify_epsilon_optimality(game, profile, n)
        rows.append([n, profile.schedule.block_length, profile.schedule.num_blocks, float(epsilon)])
    _write_table(out_dir, "adapted", "adapted", config["format"], ["n", "a", "p", "epsilon"], rows)


def _cmd_curve(config: dict, out_dir: Path) -> None:
    game = _load_config_game(config)
    start = config.get("omega") or game.states[0]
    provider = DiscountedProfileProvider(game, config["tol"])
    estimate = limit_value_from_solutions([provider.solution(d) for d in config["vstar_grid"]])
    rows: list[list] = []
    summary = {
        "initial_state": start,
        "vstar": {state: float(v) for state, v in zip(game.states, estimate.value)},
        "vstar_dispersion": estimate.dispersion,
        "sup_deviation": {},
    }
    for n in config["n_grid"]:
        profile = adapted_profile(game, n, _pick_block_length(config, n), provider=provider)
        curve = constant_payoff_curve(game, profile, start, n, config["t_grid"], estimate.value)
        for t, cum, target, dev in zip(curve.t_grid, curve.cumulative, curve.targets, curve.deviations):
            rows.append([n, t, cum, target, dev])
        summary["sup_deviation"][str(n)] = curve.sup_deviation
    _write_table(
        out_dir, "curve", "curve", config["format"], ["n", "t", "cumulative", "target", "deviation"], rows
    )
    if config.get("discounted_grid"):
        start_value = float(estimate.value[game.state_index(start)])
        drows: list[list] = []
        for discount in config["discounted_grid"]:
            x, y = provider.profile(discount)
            for t in config["t_grid"]:
                cum = discounted_cumulative_payoff(game, x, y, start, discount, t)
                drows.append([discount, t, cum, t * start_value, cum - t * start_value])
        _write_table(
            out_dir,
            "curve",
            "discounted",
            config["format"],
            ["lambda", "t", "cumulative", "target", "deviation"],
            drows,
        )
    _write_text(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")


def _cmd_certify(config: dict, out_dir: Path) -> None:
    game = _load_config_game(config)
    start = config.get("omega") or game.states[0]
    n = config["n"]
    provider = DiscountedProfileProvider(game, config["tol"])
    estimate = limit_value_from_solutions([provider.solution(d) for d in config["vstar_grid"]])
    profile = adapted_profile(game, n, _pick_block_length(config, n), provider=provider)
    epsilon = certify_epsilon_optimality(game, profile, n)
    curve = constant_payoff_curve(game, profile, start, n, config["t_grid"], estimate.value)
    drift = value_drift_diagnostic(game, profile, start, n, config["t_grid"], estimate.value)
    report = {
        "n": n,
        "a": profile.schedule.block_length,
        "p": profile.schedule.num_blocks,
        "initial_state": start,
        "epsilon": float(epsilon),
        "sup_deviation": curve.sup_deviation,
        "value_drift": {
            "sup": drift.sup_drift,
            "within_block_max": drift.within_block_max,
            "within_block_target": drift.within_block_target,
            "global_max": drift.global_max,
            "global_target": drift.global_target,
        },
        "vstar_dispersion": estimate.dispersion,
    }
    if config["format"] == "csv":
        rows = [["epsilon", report["epsilon"]], ["sup_deviation", report["sup_deviation"]]]
        for key, value in report["value_drift"].items():
            rows.append([f"value_drift.{key}", value])
        _write_table(out_dir, "certify", "certify", "csv", ["metric", "value"], rows)
    _write_text(out_dir / "certify.json", json.dumps(report, indent=2) + "\n")


def _cmd_gen(config: dict, out_dir: Path) -> None:
    entry = random_game(config["states"], config["actions1"], config["actions2"], config["seed"])
    save_game_file(entry.game, out_dir / "game.json")


_HANDLERS = {
    "values": _cmd_values,
    "adapted": _cmd_adapted,
    "curve": _cmd_curve,
    "certify": _cmd_certify,
    "gen": _cmd_gen,
}


def _run_command(command: str, config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _HANDLERS[command](config, out_dir)
    _write_manifest(out_dir, command, config)


class _ManifestConfig(dict):
    """A recorded config whose missing keys are input errors, not crashes."""

    def __missing__(self, key):
        raise InputError(f"manifest config has no {key!r} entry")


def _cmd_rerun(manifest_path: str, out_dir: Path) -> None:
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or manifest.get("schema") != _MANIFEST_SCHEMA:
        raise InputError(f"{manifest_path}: not a {_MANIFEST_SCHEMA} manifest")
    command, config, inputs = manifest.get("command"), manifest.get("config"), manifest.get("inputs", {})
    known = isinstance(command, str) and command in _HANDLERS
    if not known or not isinstance(config, dict) or not isinstance(inputs, dict):
        raise InputError(f"{manifest_path}: needs a known command and 'config' and 'inputs' objects")
    for path, recorded in inputs.items():
        if _sha256(path) != recorded:
            raise InputError(f"input file {path} changed since the manifest was written")
    _run_command(command, _ManifestConfig(config), out_dir)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_game_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--game", help="path to a game file")
    group.add_argument("--corpus", help="name of a built-in corpus game")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-8, help="discounted-solve tolerance")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_curve_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``curve`` and ``certify``; :func:`_curve_config` reads them."""
    parser.add_argument("--t-grid", default=_DEFAULT_T_GRID)
    parser.add_argument("--a", default="auto")
    parser.add_argument("--mu-file")
    parser.add_argument("--omega", help="initial state label (default: first state)")
    parser.add_argument("--vstar-grid", default=_DEFAULT_VSTAR_GRID)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stochgame", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("values", help="n-stage and discounted values")
    _add_game_source(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-grid")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lambda-grid")
    _add_common(p)

    p = sub.add_parser("adapted", help="block-discounted profiles and optimality gaps")
    _add_game_source(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-grid")
    p.add_argument("--a", default="auto", help="block length, or 'auto'")
    p.add_argument("--mu-file", help="JSON file with drift thresholds for block selection")
    _add_common(p)

    p = sub.add_parser("curve", help="cumulative payoff against t * v*")
    _add_game_source(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-grid")
    _add_curve_flags(p)
    p.add_argument("--discounted-grid", help="also emit the discounted analogue on this grid")
    _add_common(p)

    p = sub.add_parser("certify", help="one-horizon certification report")
    _add_game_source(p)
    p.add_argument("--n", type=int, required=True)
    _add_curve_flags(p)
    _add_common(p)

    p = sub.add_parser("gen", help="emit a seeded random game")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions1", type=int, required=True)
    p.add_argument("--actions2", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("rerun", help="re-execute a recorded run from its manifest")
    p.add_argument("manifest", help="path to a manifest.json")
    p.add_argument("--out", required=True)
    return parser


def _int_grid(args, what: str) -> list[int]:
    grid = []
    if getattr(args, "n_grid", None):
        grid = _parse_grid(args.n_grid, int, "--n-grid")
    elif getattr(args, "n", None):
        grid = [args.n]
    if not grid:
        raise InputError(f"{what} needs --n or --n-grid")
    if any(n < 1 for n in grid):
        raise InputError("horizons must be positive")
    return grid


def _curve_config(args: argparse.Namespace, config: dict) -> None:
    config["t_grid"] = _parse_grid(args.t_grid, float, "--t-grid")
    config["a"] = args.a if args.a == "auto" else int(args.a)
    config["mu_file"] = args.mu_file
    config["omega"] = args.omega
    config["vstar_grid"] = _parse_grid(args.vstar_grid, float, "--vstar-grid")


def _config_from_args(args: argparse.Namespace) -> dict:
    command = args.command
    config: dict = {"format": getattr(args, "format", "csv")}
    if command in ("values", "adapted", "curve", "certify"):
        config["game"] = args.game
        config["corpus"] = args.corpus
        config["tol"] = float(args.tol)
        if not config["tol"] > 0:
            raise InputError("--tol must be positive")
        if not math.isfinite(config["tol"]):
            raise InputError("--tol must be finite")
    if command == "values":
        if args.n_grid or args.n:
            config["n_grid"] = _int_grid(args, "values")
        if args.lambda_grid:
            config["lambda_grid"] = _parse_grid(args.lambda_grid, float, "--lambda-grid")
        elif args.lam is not None:
            config["lambda_grid"] = [args.lam]
        if not config.get("n_grid") and not config.get("lambda_grid"):
            raise InputError("values needs --n/--n-grid and/or --lambda/--lambda-grid")
    elif command == "adapted":
        config["n_grid"] = _int_grid(args, "adapted")
        config["a"] = args.a if args.a == "auto" else int(args.a)
        config["mu_file"] = args.mu_file
    elif command == "curve":
        config["n_grid"] = _int_grid(args, "curve")
        _curve_config(args, config)
        if args.discounted_grid:
            config["discounted_grid"] = _parse_grid(args.discounted_grid, float, "--discounted-grid")
    elif command == "certify":
        config["n"] = int(args.n)
        _curve_config(args, config)
    elif command == "gen":
        config.update(
            states=args.states, actions1=args.actions1, actions2=args.actions2, seed=args.seed
        )
    return config


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "rerun":
            _cmd_rerun(args.manifest, Path(args.out))
        else:
            config = _config_from_args(args)
            _run_command(args.command, config, Path(args.out))
    except ConvergenceError as exc:
        _emit_error(exc)
        return 3
    except (InputError, StochGameError, OSError, json.JSONDecodeError, ValueError) as exc:
        _emit_error(exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
