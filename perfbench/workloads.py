"""The three benchmark workloads: their jobs and each job's correctness check.

A workload is a fixed list of jobs per round, made from the workload seed and
the round number.  The client is closed-loop: the next job starts when the
previous one returns.  Jobs call the library through module attributes
(``shapley.finite_value``, ``cli.main``, ...) so that the traced run, which
replaces those attributes, sees every call.  Checks run after the round,
outside its timing, against ``oracles`` or the corpus' recorded facts.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from stochgame import cli, corpus, evaluation, game, shapley

#: the kernel's payoff-scale defect (ROADMAP item 3) fails these jobs' checks
SCALE_DEFECT = "matrix kernel payoff-scale defect"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None


def job_seed(seed: int, round_index: int, job_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index, job_index]).generate_state(1)[0])


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


# ---------------------------------------------------------------------------
# cli-session: CLI commands on the pinned and corpus games, one command per job
# ---------------------------------------------------------------------------

PINNED_GAMES = ("big_match", "random_2_2_2_seed7", "single_player_mdp", "two_state_cycle")


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return list(csv.reader(lines[2:]))


class CliSession:
    """The README command session and more commands on every pinned and corpus
    game, run in-process through ``stochgame.cli.main``."""

    name = "cli-session"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.arrays: dict[str, tuple] = {}
        self.limit: dict[str, float] = {}

    def setup(self) -> None:
        # a CLI user loads the game on every command; load each pinned file once
        for name in PINNED_GAMES:
            path = Path("games") / f"{name}.json"
            game.load_game_file(path)
            raw, payoff, transition = oracles.read_game_file(path)
            self.arrays[f"file-{name}"] = (raw["states"], payoff, transition)
        self.limit = corpus.big_match().known_facts["limit_value"]["values"]
        for name, make in sorted(corpus.CORPUS.items()):
            g = make().game
            self.arrays[f"corpus-{name}"] = (list(g.states), np.array(g.payoff), np.array(g.transition))
        cli.main(["gen", "--states", "2", "--actions1", "2", "--actions2", "2", "--seed", "0",
                  "--out", str(self.work / "warmup")])

    def jobs(self, round_index: int) -> list[Job]:
        """The README session plus certify and small values commands on every game.

        The order is shuffled per round so that jobs of one kind sample
        different moments of the run; ``rerun`` stays last.
        """
        out = self.work / f"r{round_index}"
        specs: list[tuple[str, list[str], Callable[[Path], str | None]]] = [
            ("values-lambda", ["values", "--game", "games/big_match.json",
                               "--lambda-grid", "1e-1,1e-2,1e-3"], self._check_values_lambda),
            ("values-n", ["values", "--corpus", "single_player_mdp", "--n", "10"],
             self._values_check("corpus-single_player_mdp", "n", 10)),
            ("adapted", ["adapted", "--corpus", "big_match", "--n-grid", "50,200,800"],
             self._check_adapted),
            ("curve", ["curve", "--corpus", "big_match", "--n-grid", "100,400", "--t-grid",
                       "0.1,0.5,0.9", "--discounted-grid", "1e-1,1e-2"], self._check_curve),
            ("gen", ["gen", "--states", "3", "--actions1", "2", "--actions2", "2",
                     "--seed", str(self.seed)], self._gen_check((3, 2, 2))),
            ("gen-533", ["gen", "--states", "5", "--actions1", "3", "--actions2", "3",
                         "--seed", str(self.seed + 1)], self._gen_check((5, 3, 3))),
        ]
        for source, (flag, value) in self._sources().items():
            specs += [
                (f"certify-{source}", ["certify", flag, value, "--n", "200"],
                 self._certify_check(200)),
                (f"values-n50-{source}", ["values", flag, value, "--n", "50"],
                 self._values_check(source, "n", 50)),
                (f"values-l0.1-{source}", ["values", flag, value, "--lambda", "0.1"],
                 self._values_check(source, "lambda", 0.1)),
            ]
        for name in sorted(corpus.CORPUS):
            specs.append((f"certify-n400-corpus-{name}", ["certify", "--corpus", name, "--n", "400"],
                          self._certify_check(400)))
        random.Random(f"{self.seed}-{round_index}").shuffle(specs)
        first = out / "values-lambda"
        specs.append(("rerun", ["rerun", str(first / "manifest.json")],
                      lambda d: _check_identical(first, d)))
        return [
            Job(label, _cli_runner(argv + ["--out", str(out / label)]),
                _cli_check(out / label, check))
            for label, argv, check in specs
        ]

    def _sources(self) -> dict[str, tuple[str, str]]:
        sources = {f"file-{n}": ("--game", f"games/{n}.json") for n in PINNED_GAMES}
        sources.update({f"corpus-{n}": ("--corpus", n) for n in sorted(corpus.CORPUS)})
        return sources

    # -- checks against corpus facts and oracles ----------------------------

    def _check_values_lambda(self, out: Path) -> str | None:
        limit = self.limit
        rows = _read_csv(out / "values.csv")
        if len(rows) != 9:
            return f"values.csv has {len(rows)} rows, expected 9"
        for kind, param, state, value in rows:
            # the Big Match's discounted value equals its limit value at every discount
            if kind != "lambda" or not _close(float(value), limit[state], 1e-5):
                return f"values.csv row {kind},{param},{state}={value} off the known value"
        data = json.loads((out / "limit.json").read_text(encoding="utf-8"))
        if data["discounts"] != [0.1, 0.01, 0.001] or not data["dispersion"] <= 1e-6:
            return f"limit.json grid/dispersion wrong: {data['discounts']}, {data['dispersion']}"
        for state, want in limit.items():
            if not _close(data["value"][state], want, 1e-5):
                return f"limit.json value[{state}]={data['value'][state]} != known {want}"
        return None

    def _values_check(self, source: str, kind: str, param):
        states, payoff, transition = self.arrays[source]
        if kind == "n":
            want, tol = oracles.n_stage_values(payoff, transition, param), 1e-9
        else:
            # the solver's tolerance bounds its distance to the fixed point by 1e-8
            want, tol = oracles.discounted_values(payoff, transition, param), 2e-8

        def check(out: Path) -> str | None:
            rows = _read_csv(out / "values.csv")
            got = {state: float(v) for k, p, state, v in rows if k == kind and float(p) == param}
            for s, state in enumerate(states):
                if not _close(got.get(state, math.nan), want[s], tol):
                    return f"{kind}={param} value of {state} is {got.get(state)}, oracle {want[s]}"
            return None

        return check

    def _check_adapted(self, out: Path) -> str | None:
        rows = [[float(v) for v in row] for row in _read_csv(out / "adapted.csv")]
        eps = {}
        for n, a, p, epsilon in rows:
            n = int(n)
            if a != oracles.default_block_length(n) or p != n // int(a):
                return f"n={n}: schedule (a={a}, p={p}) is not the ceil(sqrt n) schedule"
            if not -1e-9 <= epsilon <= 0.1:
                return f"n={n}: epsilon {epsilon} outside [0, 0.1]"
            eps[n] = epsilon
        if sorted(eps) != [50, 200, 800]:
            return f"adapted rows for horizons {sorted(eps)}"
        if not eps[800] <= max(eps[50] / 2.0, 1e-6):
            return f"epsilon does not shrink: {eps}"
        return None

    def _check_curve(self, out: Path) -> str | None:
        limit = self.limit
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for state, want in limit.items():
            if not _close(summary["vstar"][state], want, 1e-5):
                return f"curve v*[{state}]={summary['vstar'][state]} != known {want}"
        start_value = limit[summary["initial_state"]]
        for name in ("curve.csv", "discounted.csv"):
            rows = [[float(v) for v in row] for row in _read_csv(out / name)]
            if len(rows) != 6:
                return f"{name} has {len(rows)} rows, expected 6"
            for _, t, cum, target, dev in rows:
                if not _close(target, t * start_value, 1e-5) or not _close(dev, cum - target, 1e-12):
                    return f"{name}: row t={t} target/deviation inconsistent"
                if not abs(dev) <= 0.1:
                    return f"{name}: deviation {dev} at t={t} exceeds 0.1"
        return None

    def _certify_check(self, n: int):
        def check(out: Path) -> str | None:
            report = json.loads((out / "certify.json").read_text(encoding="utf-8"))
            a = oracles.default_block_length(n)
            p = n // a
            drift = report["value_drift"]
            if (report["n"], report["a"], report["p"]) != (n, a, p):
                return f"schedule {report['n'], report['a'], report['p']} != {(n, a, p)}"
            if drift["within_block_target"] != p**-2 or drift["global_target"] != 2.0 / p:
                return "drift targets are not 1/p^2 and 2/p"
            # c05/c06/c07 bounds, payoffs of every pinned game lie in [-1, 1]
            if not -1e-9 <= report["epsilon"] <= 0.1:
                return f"epsilon {report['epsilon']} outside [0, 0.1]"
            if not report["sup_deviation"] <= 0.1:
                return f"sup deviation {report['sup_deviation']} exceeds 0.1"
            if not drift["global_max"] <= 4.0 / p:
                return f"global drift {drift['global_max']} exceeds 4/p"
            return None

        return check

    def _gen_check(self, shape: tuple[int, int, int]):
        def check(out: Path) -> str | None:
            raw, payoff, transition = oracles.read_game_file(out / "game.json")
            if payoff.shape != shape or transition.shape != shape + (shape[0],):
                return f"generated shapes {payoff.shape}, {transition.shape} for {shape}"
            if np.abs(payoff).max() > 1.0 or np.abs(transition.sum(axis=-1) - 1.0).max() > 1e-12:
                return "generated game is not a valid [-1, 1] game with stochastic rows"
            return None

        return check


def _cli_runner(argv: list[str]):
    return lambda: cli.main(argv)


def _cli_check(out: Path, check):
    def run_check(code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return check(out)

    return run_check


def _check_identical(first: Path, second: Path) -> str | None:
    """Acceptance criterion c12: a rerun reproduces every output byte for byte."""
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in second.iterdir()):
        return "rerun produced a different set of files"
    for name in names:
        if (first / name).read_bytes() != (second / name).read_bytes():
            return f"rerun output {name} differs"
    return None


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0


# ---------------------------------------------------------------------------
# wide-backward: backward induction on 8-state 6x6 games
# ---------------------------------------------------------------------------


def _scaled(entry, scale: float):
    g = entry.game
    if scale == 1.0:
        return g
    return game.StochasticGame(g.states, g.actions1, g.actions2, g.payoff * scale, g.transition,
                               name=f"{g.name}_x{scale:g}")


class WideBackward:
    """finite_value, certify_epsilon_optimality and finite_values per game."""

    name = "wide-backward"
    horizon = 150
    jobs_per_round = 36
    #: payoff scale is an input dimension: two jobs in nine are scaled
    scales = {4: 1e9, 8: 1e-9}
    #: certificate bound, relative to max |g|
    bound = 1e-9

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self._games: dict[int, list] = {}

    def _round_games(self, round_index: int) -> list:
        if round_index not in self._games:
            games = []
            for i in range(self.jobs_per_round):
                s, scale = job_seed(self.seed, round_index, i), self.scales.get(i % 9, 1.0)
                games.append((s, scale, _scaled(corpus.random_game(8, 6, 6, s), scale)))
            self._games = {round_index: games}
        return self._games[round_index]

    def setup(self) -> None:
        games = self._round_games(0)
        shapley.finite_values(games[0][2], 1)

    def jobs(self, round_index: int) -> list[Job]:
        jobs = []
        for i, (s, scale, g) in enumerate(self._round_games(round_index)):
            jobs.append(Job(
                f"j{i:02d}-seed{s}-scale{scale:g}",
                self._runner(g),
                self._check,
                None if scale == 1.0 else SCALE_DEFECT,
            ))
        return jobs

    def _runner(self, g):
        n = self.horizon

        def run():
            sol = shapley.finite_value(g, n)
            eps = evaluation.certify_epsilon_optimality(g, (sol.x_strategies, sol.y_strategies), n)
            table = shapley.finite_values(g, n)
            return g, sol, eps, table

        return run

    def _check(self, result) -> str | None:
        g, sol, eps, table = result
        scale = g.max_abs_payoff * self.bound
        low, high = oracles.response_bounds(
            g.payoff, g.transition,
            oracles.stage_strategies(sol.x_strategies, self.horizon),
            oracles.stage_strategies(sol.y_strategies, self.horizon),
        )
        gap = float((high - low).max())
        if not gap <= scale:
            return f"backward-induction profile duality gap {gap / g.max_abs_payoff:.3e} max|g|"
        if not eps <= scale:
            return f"certify_epsilon_optimality {eps / g.max_abs_payoff:.3e} max|g|"
        for label, v in (("finite_value", sol.values[-1]), ("finite_values", table[-1])):
            if not (np.all(v >= low - scale) and np.all(v <= high + scale)):
                return f"{label} v_n outside the profile's guarantees"
        return None


# ---------------------------------------------------------------------------
# long-horizon-eval: exact and Monte Carlo evaluation of a stationary profile
# ---------------------------------------------------------------------------


class LongHorizonEval:
    """Solve at discount 0.05, then evaluate the profile over a long horizon."""

    name = "long-horizon-eval"
    states = 40
    discount = 0.05
    tol = 1e-8
    horizon = 5_000
    t_grid = (0.1, 0.25, 0.5, 0.75, 0.9)
    mc_trials = 2_000
    mc_horizon = 500
    jobs_per_round = 24

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self._games: dict[int, list] = {}

    def _round_games(self, round_index: int) -> list:
        if round_index not in self._games:
            seeds = [job_seed(self.seed, round_index, i) for i in range(self.jobs_per_round)]
            self._games = {round_index: [(s, corpus.random_game(self.states, 2, 2, s).game) for s in seeds]}
        return self._games[round_index]

    def setup(self) -> None:
        games = self._round_games(0)
        shapley.discounted_value(games[0][1], 0.5, self.tol)

    def jobs(self, round_index: int) -> list[Job]:
        return [
            Job(f"j{i:02d}-seed{s}", self._runner(g, s), self._check)
            for i, (s, g) in enumerate(self._round_games(round_index))
        ]

    def _runner(self, g, s: int):
        n, grid = self.horizon, self.t_grid

        def run():
            sol = shapley.discounted_value(g, self.discount, self.tol)
            profile = (sol.x, sol.y)
            out = {"game": g, "sol": sol}
            out["traj"] = evaluation.trajectory(g, sol.x, sol.y, 0, n)
            out["curve"] = evaluation.constant_payoff_curve(g, profile, 0, n, grid, sol.value)
            out["drift"] = evaluation.value_drift_diagnostic(g, profile, 0, n, grid, sol.value)
            out["guarantee"] = evaluation.guaranteed_value(g, sol.x, n)
            out["epsilon"] = evaluation.certify_epsilon_optimality(g, profile, n)
            out["mc"] = evaluation.monte_carlo_payoff(g, profile, 0, self.mc_horizon, self.mc_trials, s)
            return out

        return run

    def _check(self, out) -> str | None:
        g, sol = out["game"], out["sol"]
        target = self.tol * self.discount
        x, y = sol.x.probs, sol.y.probs
        if not sol.residual <= target:
            return f"reported Shapley residual {sol.residual:.3e} > tol*lambda {target:.3e}"
        cert = oracles.shapley_certificate(g.payoff, g.transition, self.discount, sol.value, x, y)
        if not cert <= target + 1e-12 * g.max_abs_payoff:
            return f"one-step certificate {cert:.3e} > tol*lambda {target:.3e}"
        rewards, kernel = oracles.stationary_chain(g.payoff, g.transition, x, y)
        stage, curve = oracles.forward_payoffs(rewards, kernel, 0, self.horizon, sol.value)
        tol = 1e-9 * g.max_abs_payoff
        if not np.abs(out["traj"].stage_payoffs - stage).max() <= tol:
            return "trajectory stage payoffs differ from the forward recursion"
        cumulative = np.concatenate(([0.0], np.cumsum(stage) / self.horizon))
        for t, stage_m, cum in zip(out["curve"].t_grid, out["curve"].stages, out["curve"].cumulative):
            if not _close(cum, cumulative[stage_m], tol):
                return f"constant-payoff curve at t={t} differs from the forward recursion"
        for t, d in zip(out["drift"].t_grid, out["drift"].drifts):
            stage_m = max(1, min(self.horizon, math.ceil(t * self.horizon - 1e-9)))
            if not _close(d, curve[stage_m] - curve[0], tol):
                return f"value drift at t={t} differs from the forward recursion"
        epsilon, guarantee = out["epsilon"], out["guarantee"].epsilon
        if not (math.isfinite(epsilon) and -tol <= guarantee <= epsilon + tol):
            return f"guarantee gap {guarantee} not within [0, epsilon={epsilon}]"
        mean, stderr = out["mc"]
        exact = float(stage[: self.mc_horizon].mean()) if self.mc_horizon <= self.horizon else math.nan
        if not abs(mean - exact) <= 4.0 * max(stderr, 1e-12):
            return f"Monte Carlo {mean:.6f} +- {stderr:.2e} vs exact {exact:.6f}: beyond 4 SE"
        return None


WORKLOADS = {w.name: w for w in (CliSession, WideBackward, LongHorizonEval)}
