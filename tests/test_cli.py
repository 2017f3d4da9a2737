import json
import subprocess
import sys
from pathlib import Path

import pytest

from stochgame.cli import main


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def single_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def dir_snapshot(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture
def solve_calls(monkeypatch):
    """Discounts passed to ``discounted_value``, from every module that calls it."""
    import stochgame.adapted as adapted
    import stochgame.cli as cli
    import stochgame.shapley as shapley

    calls = []
    solve = shapley.discounted_value

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    for module in (adapted, cli, shapley):
        monkeypatch.setattr(module, "discounted_value", counted)
    return calls


class TestValuesCommand:
    def test_lambda_grid_rows_per_state(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "values",
                "--corpus",
                "big_match",
                "--lambda-grid",
                "1e-1,1e-2,1e-3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = read(out / "values.csv").strip().splitlines()
        assert lines[0].startswith("# stochgame-csv v1")
        assert lines[1] == "kind,param,state,value"
        assert len(lines) == 2 + 3 * 3  # three discounts, three states
        limit = json.loads(read(out / "limit.json"))
        assert limit["value"]["play"] == pytest.approx(0.5, abs=1e-5)
        assert limit["dispersion"] <= 1e-6

    def test_limit_json_reuses_the_grid_solves(self, tmp_path, solve_calls):
        from stochgame import big_match, limit_value_estimate

        out = tmp_path / "run"
        assert main(["values", "--corpus", "big_match", "--lambda-grid", "1e-1,1e-2,1e-3", "--out", str(out)]) == 0
        assert solve_calls == [1e-1, 1e-2, 1e-3]
        estimate = limit_value_estimate(big_match().game, [1e-1, 1e-2, 1e-3])
        limit = json.loads(read(out / "limit.json"))
        assert limit["dispersion"] == estimate.dispersion
        assert list(limit["value"].values()) == list(estimate.value)

    def test_n_grid_against_game_file(self, tmp_path, games_dir):
        out = tmp_path / "run"
        code = main(
            [
                "values",
                "--game",
                str(games_dir / "single_player_mdp.json"),
                "--n",
                "10",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(read(out / "values.json"))
        rows = {row[2]: row[3] for row in payload["rows"]}
        from oracles import mdp_finite_values
        from stochgame import load_game_file

        game = load_game_file(games_dir / "single_player_mdp.json")
        oracle = mdp_finite_values(game, 10)[-1]
        for s, state in enumerate(game.states):
            assert rows[state] == pytest.approx(oracle[s], abs=1e-12)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["values", "--game", str(tmp_path / "absent.json"), "--lambda", "0.5", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_needs_some_grid(self, tmp_path):
        assert main(["values", "--corpus", "big_match", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("grid", ["0,3", "-5,3"])
    def test_non_positive_horizons_exit_2(self, grid, tmp_path, capsys):
        code = main(["values", "--corpus", "big_match", f"--n-grid={grid}", "--out", str(tmp_path / "o")])
        assert code == 2
        assert single_json_error(capsys)["error"] == "InputError"

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tol_must_be_positive_and_finite(self, tol, tmp_path, capsys):
        argv = ["values", "--corpus", "big_match", "--lambda", "0.1", "--tol", tol]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert single_json_error(capsys)["error"] == "InputError"

    def test_non_monotone_grid_rejected(self, tmp_path):
        code = main(
            ["values", "--corpus", "big_match", "--lambda-grid", "0.1,0.5,0.2", "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestAdaptedCommand:
    def test_constant_game_epsilon_near_zero(self, tmp_path):
        game_path = tmp_path / "const.json"
        game_path.write_text(
            json.dumps(
                {
                    "states": ["s", "t"],
                    "actions1": ["a", "b"],
                    "actions2": ["c", "d"],
                    "payoff": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
                    "transition": [
                        [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
                        [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
                    ],
                }
            )
        )
        out = tmp_path / "run"
        assert main(["adapted", "--game", str(game_path), "--n-grid", "10,20", "--out", str(out)]) == 0
        rows = read(out / "adapted.csv").strip().splitlines()[2:]
        for row in rows:
            assert float(row.split(",")[3]) <= 1e-7

    def test_epsilon_non_increasing_on_big_match(self, tmp_path):
        out = tmp_path / "run"
        assert main(["adapted", "--corpus", "big_match", "--n-grid", "20,60,180", "--out", str(out)]) == 0
        rows = read(out / "adapted.csv").strip().splitlines()[2:]
        eps = [float(r.split(",")[3]) for r in rows]
        assert eps[0] >= eps[1] >= eps[2]

    def test_block_length_one_exits_2(self, tmp_path, capsys):
        code = main(
            ["adapted", "--corpus", "big_match", "--n", "20", "--a", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "block length" in err["message"]

    def test_mu_file_drives_block_selection(self, tmp_path):
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps({"thresholds": [0.5] * 30, "provenance": "empirical"}))
        out = tmp_path / "run"
        assert main(
            [
                "adapted",
                "--corpus",
                "big_match",
                "--n",
                "12",
                "--mu-file",
                str(mu_path),
                "--out",
                str(out),
            ]
        ) == 0
        row = read(out / "adapted.csv").strip().splitlines()[2]
        assert row.split(",")[1] == "2"  # constant-1/2 thresholds admit a = 2

    @pytest.mark.parametrize(
        "content",
        [
            {"thresholds": 5},
            {"thresholds": [0.5] * 29 + ["0.5"]},
            {"thresholds": [0.5] * 30, "approximate": "no"},
            {"thresholds": [0.5] * 30, "approximate": 1},
        ],
        ids=["not-an-array", "string-entry", "approximate-string", "approximate-number"],
    )
    def test_malformed_mu_file_exits_2(self, content, tmp_path, capsys):
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps(content))
        argv = ["adapted", "--corpus", "big_match", "--n", "12", "--mu-file", str(mu_path)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert single_json_error(capsys)["error"] == "InputError"


class TestCurveAndCertify:
    def test_curve_outputs_and_summary(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "curve",
                "--corpus",
                "big_match",
                "--n-grid",
                "40,80",
                "--t-grid",
                "0.25,0.5,0.75",
                "--discounted-grid",
                "0.1,0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = read(out / "curve.csv").strip().splitlines()
        assert lines[1] == "n,t,cumulative,target,deviation"
        assert len(lines) == 2 + 2 * 3
        summary = json.loads(read(out / "summary.json"))
        assert set(summary["sup_deviation"]) == {"40", "80"}
        dlines = read(out / "discounted.csv").strip().splitlines()
        assert len(dlines) == 2 + 2 * 3

    def test_curve_constant_game_deviation_is_rounding_only(self, tmp_path):
        game_path = tmp_path / "const.json"
        game_path.write_text(
            json.dumps(
                {
                    "states": ["s"],
                    "actions1": ["a", "b"],
                    "actions2": ["c", "d"],
                    "payoff": [[[0.8, 0.8], [0.8, 0.8]]],
                    "transition": [[[[1.0], [1.0]], [[1.0], [1.0]]]],
                }
            )
        )
        out = tmp_path / "run"
        code = main(
            ["curve", "--game", str(game_path), "--n", "25", "--t-grid", "0.3,0.5,0.7", "--out", str(out)]
        )
        assert code == 0
        for row in read(out / "curve.csv").strip().splitlines()[2:]:
            deviation = abs(float(row.split(",")[4]))
            assert deviation <= 0.8 / 25 + 1e-9

    def test_certify_report(self, tmp_path):
        out = tmp_path / "run"
        code = main(["certify", "--corpus", "two_state_cycle", "--n", "30", "--out", str(out)])
        assert code == 0
        report = json.loads(read(out / "certify.json"))
        assert report["n"] == 30
        assert report["epsilon"] >= -1e-8
        assert report["value_drift"]["within_block_target"] == pytest.approx(
            report["p"] ** -2.0
        )


class TestOneSolvePerDiscount:
    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--corpus", "big_match", "--n-grid", "100,400", "--t-grid", "0.1,0.5,0.9",
             "--discounted-grid", "1e-1,1e-2"],
            ["certify", "--corpus", "big_match", "--n", "400"],
            ["adapted", "--corpus", "big_match", "--n-grid", "50,200,800"],
        ],
        ids=["curve", "certify", "adapted"],
    )
    def test_no_discount_is_solved_twice(self, argv, tmp_path, solve_calls):
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert solve_calls
        assert len(solve_calls) == len(set(solve_calls))


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["values", "--corpus", "big_match", "--n", "abc"],
            ["values", "--corpus", "big_match", "--lambda", "x"],
            ["values", "--corpus", "big_match", "--n", "0", "--lambda", "0.1"],
            ["adapted", "--corpus", "big_match", "--n", "20", "--a", "x"],
            ["values", "--corpus", "big_match", "--n", "3", "--n-grid", "4,5"],
            ["values", "--corpus", "big_match", "--lambda", "0.1", "--lambda-grid", "0.1,0.01"],
            ["adapted", "--corpus", "big_match", "--n", "0"],
            ["frobnicate", "--corpus", "big_match"],
            ["gen", "--states", "2", "--actions1", "2", "--actions2", "2", "--seed", "-1"],
        ],
        ids=["n-abc", "lambda-x", "n-0", "a-x", "n-and-n-grid", "lambda-and-lambda-grid",
             "adapted-n-0", "unknown-command", "gen-seed-negative"],
    )
    def test_bad_arguments_exit_2_with_one_json_error(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert single_json_error(capsys)["error"] == "InputError"
        assert not out.exists()


class TestExitCodes:
    def test_convergence_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        from stochgame.errors import ConvergenceError
        import stochgame.cli as cli

        def exploding(*args, **kwargs):
            raise ConvergenceError("solve stalled", residual=0.5, iterations=9)

        monkeypatch.setattr(cli, "discounted_value", exploding)
        code = main(["values", "--corpus", "big_match", "--lambda", "0.5", "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"


class TestGen:
    def test_gen_matches_golden_corpus_file(self, tmp_path, games_dir):
        out = tmp_path / "run"
        assert main(
            ["gen", "--states", "2", "--actions1", "2", "--actions2", "2", "--seed", "7", "--out", str(out)]
        ) == 0
        assert read(out / "game.json") == read(games_dir / "random_2_2_2_seed7.json")


class TestReproducibility:
    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(
            ["values", "--corpus", "big_match", "--lambda-grid", "1e-1,1e-2,1e-3", "--out", str(first)]
        ) == 0
        assert main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 0
        assert dir_snapshot(first) == dir_snapshot(second)

    def test_rerun_detects_changed_input(self, tmp_path, games_dir, capsys):
        game_path = tmp_path / "game.json"
        game_path.write_text(read(games_dir / "big_match.json"))
        first = tmp_path / "first"
        assert main(["values", "--game", str(game_path), "--lambda", "0.5", "--out", str(first)]) == 0
        game_path.write_text(read(games_dir / "two_state_cycle.json"))
        code = main(["rerun", str(first / "manifest.json"), "--out", str(tmp_path / "second")])
        assert code == 2
        assert "changed" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: {key: value for key, value in m.items() if key != "config"},
            lambda m: {**m, "command": "frobnicate"},
            lambda m: {**m, "config": {key: value for key, value in m["config"].items() if key != "tol"}},
            lambda m: [m],
        ],
        ids=["no-config", "unknown-command", "config-without-tol", "top-level-array"],
    )
    def test_malformed_manifest_exits_2(self, damage, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["values", "--corpus", "big_match", "--lambda", "0.5", "--out", str(first)]) == 0
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(damage(json.loads(read(first / "manifest.json")))))
        capsys.readouterr()
        assert main(["rerun", str(path), "--out", str(tmp_path / "second")]) == 2
        assert single_json_error(capsys)["error"] == "InputError"

    @pytest.mark.parametrize(
        "entries",
        [{"tol": "x"}, {"lambda_grid": 0.5}, {"n_grid": [0, 3]}, {"tol": True}, {"extra": 1}],
        ids=["tol-string", "lambda-grid-number", "n-grid-zero", "tol-boolean", "unknown-key"],
    )
    def test_mistyped_config_exits_2(self, entries, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["values", "--corpus", "big_match", "--lambda", "0.5", "--out", str(first)]) == 0
        manifest = json.loads(read(first / "manifest.json"))
        manifest["config"].update(entries)
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path), "--out", str(tmp_path / "second")]) == 2
        assert single_json_error(capsys)["error"] == "InputError"

    def test_rerun_of_a_manifest_that_records_every_flag(self, tmp_path):
        """Older manifests list ``format`` first and record unset flags as null."""
        first = tmp_path / "first"
        assert main(["certify", "--corpus", "two_state_cycle", "--n", "30", "--out", str(first)]) == 0
        config = {
            "format": "csv", "game": None, "corpus": "two_state_cycle", "tol": 1e-8, "n": 30,
            "t_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], "a": "auto", "mu_file": None,
            "omega": None, "vstar_grid": [0.1, 0.01, 0.001],
        }
        manifest = {**json.loads(read(first / "manifest.json")), "config": config}
        older = tmp_path / "older"
        older.mkdir()
        (older / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        second = tmp_path / "second"
        assert main(["rerun", str(older / "manifest.json"), "--out", str(second)]) == 0
        outputs = dir_snapshot(second)
        assert outputs.pop("manifest.json") == (older / "manifest.json").read_bytes()
        assert outputs == {name: data for name, data in dir_snapshot(first).items() if name != "manifest.json"}

    def test_identical_commands_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["curve", "--corpus", "two_state_cycle", "--n", "30", "--t-grid", "0.5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert dir_snapshot(a) == dir_snapshot(b)

    def test_manifest_records_config_and_version(self, tmp_path):
        out = tmp_path / "run"
        assert main(["values", "--corpus", "big_match", "--lambda", "0.5", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["command"] == "values"
        assert manifest["config"]["lambda_grid"] == [0.5]
        assert manifest["package_version"]


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "stochgame.cli", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "stochgame" in proc.stdout
