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
reproduces every output byte for byte.  Exit codes: 0 ok, 2 input error
(argument errors included), 3 convergence failure; errors are emitted as
one JSON object on stderr.  A run's config is its parsed flags, so
:func:`build_parser` is the only config schema; ``rerun`` parses the
recorded config as flags and refuses it unless it parses back unchanged.
``--n``/``--n-grid`` and ``--lambda``/``--lambda-grid`` exclude each other.
"""
from __future__ import annotations

import argparse
import csv
import functools
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
    values = data.get("thresholds") if isinstance(data, dict) else None
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise InputError(f"{path}: threshold file needs a 'thresholds' array of numbers")
    approximate = data.get("approximate", False)
    if not isinstance(approximate, bool):
        raise InputError(f"{path}: 'approximate' must be true or false")
    return DiscountThresholds(
        tuple(float(v) for v in values), str(data.get("provenance", "file")), approximate
    )


def _pick_block_length(config: dict, horizon: int) -> int:
    if config.get("a", "auto") != "auto":
        return config["a"]
    if config.get("mu_file"):
        try:
            return select_block_length(horizon, _load_thresholds(config["mu_file"]))
        except ScheduleNotReadyError:
            pass
    return default_block_length(horizon)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_values(config: dict, out_dir: Path) -> None:
    if not config.get("n_grid") and not config.get("lambda_grid"):
        raise InputError("values needs --n/--n-grid and/or --lambda/--lambda-grid")
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


def _run_command(command: str, config: dict, out_dir: Path, recorded=None) -> None:
    """Run ``command`` on ``config``; a rerun's manifest repeats the ``recorded`` config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _HANDLERS[command](config, out_dir)
    _write_manifest(out_dir, command, config if recorded is None else recorded)


def _flag(key: str, value) -> str:
    """``--key=value`` for a recorded entry; ``repr`` round-trips floats exactly."""
    text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
    return f"--{key.replace('_', '-')}={text}"


def _cmd_rerun(parser: argparse.ArgumentParser, manifest_path: str, out_dir: Path) -> None:
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or manifest.get("schema") != _MANIFEST_SCHEMA:
        raise InputError(f"{manifest_path}: not a {_MANIFEST_SCHEMA} manifest")
    command, recorded, inputs = manifest.get("command"), manifest.get("config"), manifest.get("inputs", {})
    known = isinstance(command, str) and command in _HANDLERS
    if not known or not isinstance(recorded, dict) or not isinstance(inputs, dict):
        raise InputError(f"{manifest_path}: needs a known command and 'config' and 'inputs' objects")
    for path, digest in inputs.items():
        if _sha256(path) != digest:
            raise InputError(f"input file {path} changed since the manifest was written")
    # a null entry is an unset flag, as in manifests that recorded every flag
    wanted = {key: value for key, value in recorded.items() if value is not None}
    flags = [_flag(key, value) for key, value in wanted.items()]
    config = _config(parser.parse_args([command, *flags, "--out", str(out_dir)]))
    if config != wanted:
        raise InputError(f"{manifest_path}: config is not what its {command} flags parse to")
    _run_command(command, config, out_dir, recorded)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors: exit 2 and one JSON line."""

    def error(self, message: str):
        raise InputError(message)


def _checked(kind, requirement: str, ok=lambda value: True):
    """An argparse ``type``: ``kind(text)``, refused unless ``ok`` holds of it."""

    def convert(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")

    return convert


_real = _checked(float, "expected a number")
_horizon = _checked(int, "horizons must be positive integers", lambda n: n >= 1)
_seed = _checked(int, "must be a non-negative integer", lambda n: n >= 0)
_tol = _checked(float, "must be a positive finite number", lambda t: t > 0 and math.isfinite(t))
_block_length = _checked(lambda s: s if s == "auto" else int(s), "must be 'auto' or an integer")


def _grid(item):
    """An argparse ``type``: a non-empty, strictly monotone comma-separated list of ``item``."""

    def convert(text: str) -> list:
        grid = [item(part) for part in text.split(",") if part.strip() != ""]
        pairs = list(zip(grid, grid[1:]))
        if not grid or not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
            raise argparse.ArgumentTypeError(f"not a non-empty, strictly monotone list: {text!r}")
        return grid

    return convert


def _add_game_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--game", help="path to a game file")
    group.add_argument("--corpus", help="name of a built-in corpus game")


def _add_horizons(parser: argparse.ArgumentParser, required: bool) -> None:
    """``--n`` is a one-entry ``--n-grid``: both set the config's ``n_grid``."""
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--n", dest="n_grid", metavar="N", type=lambda s: [_horizon(s)])
    group.add_argument("--n-grid", type=_grid(_horizon))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=_tol, default=1e-8, help="discounted-solve tolerance")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_curve_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``curve`` and ``certify``."""
    parser.add_argument("--t-grid", type=_grid(_real), default=_DEFAULT_T_GRID)
    parser.add_argument("--a", type=_block_length, default="auto", help="block length, or 'auto'")
    parser.add_argument("--mu-file", help="JSON file with drift thresholds for block selection")
    parser.add_argument("--omega", help="initial state label (default: first state)")
    parser.add_argument("--vstar-grid", type=_grid(_real), default=_DEFAULT_VSTAR_GRID)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stochgame", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("values", help="n-stage and discounted values")
    _add_game_source(p)
    _add_horizons(p, required=False)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lambda_grid", metavar="LAMBDA", type=lambda s: [_real(s)])
    group.add_argument("--lambda-grid", type=_grid(_real))
    _add_common(p)

    p = sub.add_parser("adapted", help="block-discounted profiles and optimality gaps")
    _add_game_source(p)
    _add_horizons(p, required=True)
    p.add_argument("--a", type=_block_length, default="auto", help="block length, or 'auto'")
    p.add_argument("--mu-file", help="JSON file with drift thresholds for block selection")
    _add_common(p)

    p = sub.add_parser("curve", help="cumulative payoff against t * v*")
    _add_game_source(p)
    _add_horizons(p, required=True)
    _add_curve_flags(p)
    p.add_argument(
        "--discounted-grid", type=_grid(_real), help="also emit the discounted analogue on this grid"
    )
    _add_common(p)

    p = sub.add_parser("certify", help="one-horizon certification report")
    _add_game_source(p)
    p.add_argument("--n", type=_horizon, required=True)
    _add_curve_flags(p)
    _add_common(p)

    p = sub.add_parser("gen", help="emit a seeded random game")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions1", type=int, required=True)
    p.add_argument("--actions2", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("rerun", help="re-execute a recorded run from its manifest")
    p.add_argument("manifest", help="path to a manifest.json")
    p.add_argument("--out", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process on first use."""
    return build_parser()


def _config(args: argparse.Namespace) -> dict:
    """A run's config: the parsed flags in flag order, without ``--out`` and unset flags."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "out") and v is not None}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rerun":
            _cmd_rerun(parser, args.manifest, Path(args.out))
        else:
            _run_command(args.command, _config(args), Path(args.out))
    except SystemExit as exc:  # --help and --version
        return int(exc.code) if exc.code else 0
    except (StochGameError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
