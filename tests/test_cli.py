"""Command-line interface: subcommands, exit codes, manifests, CSV
formats, and override precedence."""

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from delayctrl.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from delayctrl import ObjectiveEstimate, PathRecord, absde, build_problem
from delayctrl.errors import ConfigError
from delayctrl.model import SETTINGS
from delayctrl.examples import (Example34Params, Example35Params,
                                ex35_matched_alpha, example_params)

BASE_CFG = {
    "problem": {
        "selector": "example_3_4",
        "params": {"gamma": 0.5, "mu": 0.05, "rho": 0.1, "sigma0": 0.05,
                   "X0": 1.0},
        "delta": 1.0, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
        "control_bounds": [0.0, 50.0],
        "initial_segment": {"kind": "constant", "value": 1.0},
    },
    "grid": {"dt": 0.05, "horizon": 3.0},
    "mc": {"n_paths": 16, "seed": 3, "threads": 1},
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CFG))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_paths_and_manifest(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg_path, "--out-dir",
                       str(out), "--paths", "3") == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert files == ["manifest.json", "path_00000.csv", "path_00001.csv",
                         "path_00002.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        raw = open(cfg_path, "rb").read()
        assert manifest["config_hash"] == hashlib.sha256(raw).hexdigest()
        assert "path_00000.csv" in manifest["outputs"]

    def test_csv_has_full_precision(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        run_cli("simulate", "--config", cfg_path, "--out-dir", str(out),
                "--paths", "1")
        lines = (out / "path_00000.csv").read_text().splitlines()
        assert lines[0] == "t,X,Y,A,u"
        # 17 significant digits survive a float round trip
        x = float(lines[2].split(",")[1])
        assert format(x, ".17g") == lines[2].split(",")[1]

    def test_seed_flag_overrides_config(self, cfg_path, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run_cli("simulate", "--config", cfg_path, "--out-dir", str(a),
                "--paths", "1")
        run_cli("simulate", "--config", cfg_path, "--out-dir", str(b),
                "--paths", "1", "--seed", "99")
        run_cli("simulate", "--config", cfg_path, "--out-dir", str(c),
                "--paths", "1", "--seed", "3")
        pa = (a / "path_00000.csv").read_text()
        pb = (b / "path_00000.csv").read_text()
        pc = (c / "path_00000.csv").read_text()
        assert pa != pb
        assert pa == pc

    def test_constant_control_override(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg_path, "--out-dir",
                       str(out), "--paths", "1", "--control",
                       "constant:0.25") == EXIT_OK
        line = (out / "path_00000.csv").read_text().splitlines()[1]
        assert float(line.split(",")[4]) == 0.25

    def test_file_control(self, cfg_path, tmp_path):
        table = tmp_path / "u.csv"
        n_rows = int(3.0 / 0.05) + 1
        table.write_text("t,u\n" + "\n".join(
            f"{k * 0.05},0.2" for k in range(n_rows)))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg_path, "--out-dir",
                       str(out), "--paths", "1", "--control",
                       f"file:{table}") == EXIT_OK
        line = (out / "path_00000.csv").read_text().splitlines()[1]
        assert float(line.split(",")[4]) == 0.2

    def test_short_control_table_rejected(self, cfg_path, tmp_path):
        table = tmp_path / "u.csv"
        table.write_text("t,u\n0.0,0.2\n")
        assert run_cli("simulate", "--config", cfg_path, "--out-dir",
                       str(tmp_path / "out"), "--control",
                       f"file:{table}") == EXIT_USAGE


class TestObjective:
    def test_report_content(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("objective", "--config", cfg_path, "--out-dir",
                       str(out), "--paths", "64") == EXIT_OK
        payload = json.loads((out / "objective.json").read_text())
        assert payload["n_paths"] == 64
        assert payload["truncation_T"] == 3.0
        assert np.isfinite(payload["mean"])
        assert payload["tail_bound"] >= 0.0

    def test_horizon_override(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        run_cli("objective", "--config", cfg_path, "--out-dir", str(out),
                "--paths", "8", "--horizon", "2.0")
        payload = json.loads((out / "objective.json").read_text())
        assert payload["truncation_T"] == 2.0


class TestAdjoint:
    def test_first_system(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("adjoint", "--config", cfg_path, "--out-dir",
                       str(out), "--system", "first") == EXIT_OK
        report = json.loads((out / "picard_report.json").read_text())
        assert report["converged"]
        data = np.genfromtxt(out / "adjoint_first.csv", delimiter=",",
                             names=True)
        assert np.all(np.isfinite(data["p"]))

    def test_regression_solve_on_an_exited_path_fails_fast(self, tmp_path):
        """Path 569 of this ensemble falls below zero at step 491, where
        f_x turns NaN: the solve stops at its first sweep and the report
        names the path and the node."""
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["grid"] = {"dt": 0.02, "horizon": 10.0}
        cfg["mc"] = {"n_paths": 1024, "seed": 0, "threads": 1}
        cfg["solver"] = {"mode": "regression"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("adjoint", "--config", str(path), "--out-dir",
                       str(out), "--system", "first") == EXIT_FAIL
        report = json.loads((out / "picard_report.json").read_text())
        assert report["iterations"] == 0 and not report["converged"]
        assert "on path 569 at grid node 491" in report["error"]

    def test_second_system(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("adjoint", "--config", cfg_path, "--out-dir",
                       str(out), "--system", "second") == EXIT_OK
        data = np.genfromtxt(out / "adjoint_second.csv", delimiter=",",
                             names=True)
        assert data["p1"][0] > 0
        np.testing.assert_allclose(data["p2"], 0.0, atol=1e-12)


class TestSolveManifest:
    """A regression solve records in manifest.json where its projections
    ran; picard_report.json keeps the report alone.  Its q/r worker runs
    with a one-thread BLAS pool, which these tests stub."""

    @pytest.fixture(autouse=True)
    def one_thread_pool(self, monkeypatch):
        monkeypatch.setattr(absde, "_blas_threads", lambda: 1)

    @staticmethod
    def _regression_cfg(tmp_path, **solver):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["solver"] = {"mode": "regression", **solver}
        cfg["mc"]["n_paths"] = 32
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @staticmethod
    def _solve(out):
        return json.loads((out / "manifest.json").read_text())["solve"]

    def test_adjoint(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("adjoint", "--config", self._regression_cfg(tmp_path),
                       "--out-dir", str(out), "--system", "first") == EXIT_OK
        solve = self._solve(out)
        n = 60  # horizon 3 over dt 0.05
        assert solve["worker"] and solve["sweeps"] > 0
        assert solve["projections"] == {"main": solve["sweeps"] * n,
                                        "worker": solve["sweeps"] * n}
        assert solve["worker_wait_s"] >= 0.0
        report = json.loads((out / "picard_report.json").read_text())
        assert set(report) == {"distances", "p_distances", "qr_distances",
                               "ratios", "iterations", "converged",
                               "weight_lambda", "mode"}

    def test_failed_adjoint(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._regression_cfg(tmp_path, picard_max_iter=1)
        assert run_cli("adjoint", "--config", cfg, "--out-dir", str(out),
                       "--system", "first") == EXIT_FAIL
        report = json.loads((out / "picard_report.json").read_text())
        assert report["iterations"] == 1 and "execution" not in report
        solve = self._solve(out)
        assert solve["worker"] and solve["sweeps"] >= 1

    @pytest.mark.parametrize("command", ["check", "picard-diagnostics"])
    def test_check_and_diagnostics(self, tmp_path, command):
        out = tmp_path / "out"
        extra = (("--principle", "sufficient1", "--control", "constant:0.1")
                 if command == "check" else ())
        code = run_cli(command, "--config", self._regression_cfg(tmp_path),
                       "--out-dir", str(out), *extra)
        assert code in (EXIT_OK, EXIT_FAIL)
        assert self._solve(out)["worker"]

    def test_deterministic_solve_records_nothing(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("adjoint", "--config", cfg_path, "--out-dir", str(out),
                       "--system", "first") == EXIT_OK
        assert "solve" not in json.loads((out / "manifest.json").read_text())


class TestWeightLambda:
    @pytest.mark.parametrize("command, report", [
        ("adjoint", "picard_report.json"),
        ("picard-diagnostics", "picard_diagnostics.json")])
    def test_flag_overrides_the_solver_section(self, tmp_path, command,
                                               report):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["solver"] = {"weight_lambda": 3.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(path), "--out-dir", str(out),
                       "--weight-lambda", "2.5") == EXIT_OK
        payload = json.loads((out / report).read_text())
        assert payload["weight_lambda"] == 2.5


class TestCheck:
    def test_necessary_passes(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("check", "--config", cfg_path, "--out-dir", str(out),
                       "--principle", "necessary", "--paths", "64") == EXIT_OK
        payload = json.loads((out / "check_necessary.json").read_text())
        assert payload["verdict"] == "pass"
        text = (out / "check_necessary.txt").read_text()
        assert "verdict:   pass" in text
        assert "np.float64" not in text

    @pytest.mark.parametrize("principle", ["necessary", "sufficient1"])
    def test_mc_ensemble_key_is_not_an_input(self, tmp_path, capsys,
                                             principle):
        """The checks simulate their candidate themselves, so mc.ensemble
        is no config key: it exits 1 naming it, before any check runs."""
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["mc"]["ensemble"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("check", "--config", str(path), "--out-dir", str(out),
                       "--principle", principle, "--paths", "64") == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: mc has no key 'ensemble'")
        assert not out.exists()

    def test_exit_code_tracks_verdict(self, tmp_path):
        """A truncated numerical adjoint misprices the control at short
        horizons: the sufficiency check honestly fails and exits 2."""
        cfg = json.loads(json.dumps(BASE_CFG))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli("check", "--config", str(path), "--out-dir", str(out),
                       "--principle", "sufficient2", "--paths", "64")
        assert code == EXIT_FAIL
        payload = json.loads((out / "check_sufficient2.json").read_text())
        assert payload["verdict"] == "fail"

    def test_constant_candidate_solves_in_regression_mode(self, tmp_path,
                                                          monkeypatch):
        """solver.mode = regression reaches the candidate's adjoint solve:
        it runs on a recorded ensemble of mc.n_paths paths."""
        import delayctrl.cli as cli

        ensembles = []
        prepare = cli.prepare_first_adjoint

        def spy(*args, **kwargs):
            ensembles.append(kwargs.get("ensemble"))
            return prepare(*args, **kwargs)

        monkeypatch.setattr(cli, "prepare_first_adjoint", spy)
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["solver"] = {"mode": "regression"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("check", "--config", str(path), "--out-dir",
                       str(tmp_path / "out"), "--principle", "sufficient1",
                       "--paths", "32", "--control", "constant:0.1")
        assert code in (EXIT_OK, EXIT_FAIL)
        assert len(ensembles) == 1
        assert ensembles[0] is not None and len(ensembles[0]["X"]) == 32

    def test_solved_triple_released_before_the_check(self, tmp_path,
                                                     monkeypatch):
        """A regression-mode check keeps only p on the grid of the solved
        adjoint: when the check starts, less than half the bytes of the
        triple's per-path p, q and r are still held since the command
        began (holding the triple kept all of them).  A first run keeps
        the allocations of first calls (imports, caches) out."""
        import tracemalloc

        import delayctrl.cli as cli

        held = []
        check = cli.necessary_residual

        def spy(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return check(*args, **kwargs)

        monkeypatch.setattr(cli, "necessary_residual", spy)
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["solver"] = {"mode": "regression"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        n_paths = 512
        argv = ("check", "--config", str(path), "--out-dir",
                str(tmp_path / "out"), "--principle", "necessary",
                "--paths", str(n_paths), "--control", "constant:0.1")
        run_cli(*argv)
        tracemalloc.start()
        try:
            code = run_cli(*argv)
        finally:
            tracemalloc.stop()
        assert code in (EXIT_OK, EXIT_FAIL)
        grid = cfg["grid"]
        nodes = (round(grid["horizon"] / grid["dt"]) + 1
                 + round(cfg["problem"]["delta"] / grid["dt"]))
        triple = 3 * 8 * n_paths * nodes  # p, q and r, one mark column
        assert held[1] < 0.5 * triple, f"{held[1] / triple:.2f}x the triple"

    def test_one_closed_form_search_per_check(self, tmp_path, monkeypatch):
        """An Example 3.5 closed-form candidate without control.p0: the
        control and the adjoint of the check come from one ex35_K search."""
        import delayctrl.cli as cli

        searches = []
        search = cli.ex35_K

        def spy(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(cli, "ex35_K", spy)
        cfg = {
            "problem": {"selector": "example_3_5", "params": {"sigma0": 0.0},
                        "delta": 1.0, "rho": 0.1, "control_bounds": [0.0, 1.0]},
            "grid": {"dt": 0.05, "horizon": 3.0},
            "mc": {"n_paths": 16, "seed": 3},
            "search": {"T_search": 20.0, "dt": 0.1},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("check", "--config", str(path), "--out-dir",
                       str(tmp_path / "out"), "--principle", "necessary")
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_INCONCLUSIVE)
        assert len(searches) == 1

    def test_window_narrower_than_a_step_is_a_usage_error(self, tmp_path,
                                                           capsys):
        """A zero-width bump window at T on the Example 3.4 settings of
        the benchmark (dt 0.01, T 10) would measure the trapezoid end
        weight of the truncated objective and fail the optimum; the check
        refuses it and exits 1 with a message naming the window and dt."""
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["grid"] = {"dt": 0.01, "horizon": 10.0}
        cfg["mc"]["bump_windows"] = [[10.0, 0.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("check", "--config", str(path), "--out-dir",
                       str(tmp_path / "out"), "--principle", "necessary",
                       "--paths", "64")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "[10.0, 10.0]" in err and "dt=0.01" in err

    @pytest.mark.parametrize("window", [[7.0, 1.0], [-3.0, 1.0], [4.5, 2.0]])
    def test_window_outside_horizon_is_a_usage_error(self, tmp_path, capsys,
                                                     window):
        """A window outside [0, T] reads 0 (or a bias from the part past
        T) instead of a derivative; the check refuses it and exits 1."""
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["grid"] = {"dt": 0.05, "horizon": 5.0}
        cfg["mc"]["bump_windows"] = [window]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("check", "--config", str(path), "--out-dir",
                       str(tmp_path / "out"), "--principle", "necessary",
                       "--paths", "64")
        assert code == EXIT_USAGE
        assert "not contained in [0, 5.0]" in capsys.readouterr().err


    @pytest.mark.parametrize("principle, key, value", [
        ("necessary", "probe_count", 0),
        ("necessary", "probe_span", 0),
        ("sufficient1", "horizon_fractions", [0]),
        ("necessary", "bump_s", [0]),
        ("necessary", "basis_degree", 1.5),
        ("sufficient2", "probe_span", 1.5),
        ("necessary", "bump_windows", None),
        ("necessary", "bump_windows", [1.0, 0.5])])
    def test_degenerate_setting_is_a_usage_error(self, tmp_path, capsys,
                                                 monkeypatch, principle, key,
                                                 value):
        """Settings that would leave nothing to test (no probe, a probe at
        t = 0 only, a ladder at T = 0), divide by a zero bump or are no
        list of [start, width] pairs (a null, one bare pair) exit 1
        naming the key, before any ensemble is simulated."""
        import delayctrl.mp as mp

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before refusing the setting")

        monkeypatch.setattr(mp, "simulate_ensemble", no_simulation)
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["mc"] = {"n_paths": 8, "seed": 0, key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("check", "--config", str(path), "--out-dir", str(out),
                       "--principle", principle) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: mc.{key} must")
        assert not (out / f"check_{principle}.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("params", None), ("params", [0.5]),
        ("initial_segment", None), ("initial_segment", 1.0),
        ("control_bounds", None), ("control_bounds", "0,50")])
    def test_problem_key_of_the_wrong_type(self, tmp_path, capsys, key,
                                           value):
        """A sub-section of ``problem`` that is not an object (the bounds
        not an array) exits 1 naming it, not with a traceback."""
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["problem"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: problem.{key} must")

    def test_boundary_verdict_exits_3(self, tmp_path, capsys):
        """A constant candidate on the upper control bound: the necessary
        check reports ``boundary`` and exits EXIT_INCONCLUSIVE."""
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["problem"]["control_bounds"] = [0.0, 0.05]
        cfg["mc"]["bump_windows"] = []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("check", "--config", str(path), "--out-dir", str(out),
                       "--principle", "necessary",
                       "--control", "constant:0.05") == EXIT_INCONCLUSIVE
        payload = json.loads((out / "check_necessary.json").read_text())
        assert payload["verdict"] == "boundary"
        assert capsys.readouterr().out == "necessary: boundary\n"


class TestExamples:
    def test_example34_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("example34", "--config", cfg_path, "--out-dir",
                       str(out)) == EXIT_OK
        payload = json.loads((out / "example34.json").read_text())
        assert payload["p0_star"] == pytest.approx(0.15 ** -0.5, rel=1e-12)
        data = np.genfromtxt(out / "example34.csv", delimiter=",", names=True)
        assert set(data.dtype.names) == {"t", "p1", "X", "u"}

    @pytest.mark.slow  # runs the ex35_K search
    def test_example35_outputs(self, tmp_path):
        cfg = {
            "problem": {
                "selector": "example_3_5",
                "params": {"sigma0": 0.0},
                "delta": 1.0, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
                "control_bounds": [0.0, 1.0],
                "initial_segment": {"kind": "constant", "value": 1.0},
            },
            "grid": {"dt": 0.05, "horizon": 3.0},
        }
        path = tmp_path / "cfg35.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("example35", "--config", str(path), "--out-dir",
                       str(out)) == EXIT_OK
        payload = json.loads((out / "example35.json").read_text())
        assert payload["alpha_residual"] == pytest.approx(0.0, abs=1e-14)
        assert payload["K"] > 0


    def test_closed_form_uses_the_search_section(self, tmp_path):
        # without control.p0, adjoint --system second searches K with the
        # config's search section, exactly as example35 does
        cfg = {
            "problem": {
                "selector": "example_3_5",
                "params": {"sigma0": 0.0},
                "delta": 1.0, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
                "control_bounds": [0.0, 1.0],
                "initial_segment": {"kind": "constant", "value": 1.0},
            },
            "grid": {"dt": 0.05, "horizon": 3.0},
            "search": {"T_search": 20.0, "dt": 0.1},
        }
        path = tmp_path / "cfg35.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ex35"
        assert run_cli("example35", "--config", str(path), "--out-dir",
                       str(out)) == EXIT_OK
        K = json.loads((out / "example35.json").read_text())["K"]
        searched = tmp_path / "searched"
        assert run_cli("adjoint", "--config", str(path), "--out-dir",
                       str(searched), "--system", "second") == EXIT_OK
        cfg["control"] = {"kind": "closed_form", "p0": K}
        path.write_text(json.dumps(cfg))
        given = tmp_path / "given"
        assert run_cli("adjoint", "--config", str(path), "--out-dir",
                       str(given), "--system", "second") == EXIT_OK
        assert ((searched / "adjoint_second.csv").read_bytes()
                == (given / "adjoint_second.csv").read_bytes())


class TestExampleParams:
    @pytest.mark.parametrize("cls, selector", [
        (Example34Params, "example_3_4"), (Example35Params, "example_3_5")])
    def test_no_params_section_gives_defaults(self, cls, selector):
        bare = {"selector": selector}
        full = {key: value for key, value in BASE_CFG["problem"].items()
                if key != "params"}
        full["selector"] = selector
        for problem in (bare, full):
            assert example_params({"problem": problem}) == cls()

    def test_problem_section_fallbacks(self):
        """delta and lambda_avg are the problem section's; a params.delta
        or params.lambda_avg, which would be overwritten, is refused
        naming the key to set instead."""
        problem = {"selector": "example_3_5", "rho": 0.2, "delta": 0.5,
                   "params": {"beta": 0.04}}
        assert example_params({"problem": problem}) == Example35Params(
            beta=0.04, rho=0.2, delta=0.5, lambda_avg=0.2)
        problem["lambda_avg"] = 0.3
        problem["params"]["rho"] = 0.15
        assert example_params({"problem": problem}) == Example35Params(
            beta=0.04, rho=0.15, delta=0.5, lambda_avg=0.3)
        for selector in ("example_3_4", "example_3_5"):
            for key in ("delta", "lambda_avg"):
                bad = {"selector": selector, "params": {key: 9.0}}
                with pytest.raises(ConfigError,
                                   match=f"set problem.{key} instead"):
                    example_params({"problem": bad})

    def test_params_delta_exits_1(self, tmp_path, capsys):
        """An Example 3.5 config with params.delta ran on problem.delta
        and exited 0; it now exits 1 naming problem.delta."""
        cfg = {"problem": {"selector": "example_3_5",
                           "params": {"delta": 2.0}, "delta": 1.0},
               "grid": {"dt": 0.05, "horizon": 3.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(path), "--out-dir",
                       str(out), "--paths", "1",
                       "--control", "constant:0.1") == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: problem.params.delta is not read; set problem.delta "
            "instead\n")
        assert not (out / "manifest.json").exists()


    def test_decay_falls_back_to_the_simulated_rho(self):
        """With params.rho and no problem.rho, the simulated drift and the
        closed form share the averaging decay: the matched alpha is the
        simulated b_y at u = 0."""
        cfg = {"problem": {"selector": "example_3_5", "params": {"rho": 0.2}}}
        spec = build_problem(cfg)
        b_y = spec.coeffs.partial("b", "y")(0.0, 1.0, 1.0, 1.0, 0.0)
        assert ex35_matched_alpha(example_params(cfg)) == float(b_y)

    def test_invalid_parameter_is_a_config_error(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["problem"]["params"]["gamma"] = 1.5
        with pytest.raises(ConfigError, match="gamma"):
            build_problem(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path)) == EXIT_USAGE


class TestInitialState:
    def _config(self, tmp_path, x0, segment=None):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["problem"]["params"]["X0"] = x0
        del cfg["problem"]["initial_segment"]
        if segment is not None:
            cfg["problem"]["initial_segment"] = segment
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_params_x0_sets_the_segment(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", self._config(tmp_path, 2.0),
                       "--out-dir", str(out), "--paths", "1") == EXIT_OK
        data = np.genfromtxt(out / "path_00000.csv", delimiter=",",
                             names=True)
        assert data["X"][0] == 2.0

    @pytest.mark.parametrize("segment", [
        {"kind": "constant", "value": 1.0},
        {"kind": "linear", "value": 2.0, "slope": 0.5}])
    def test_segment_other_than_x0_refused(self, tmp_path, segment, capsys):
        assert run_cli("simulate", "--config",
                       self._config(tmp_path, 2.0, segment),
                       "--out-dir", str(tmp_path), "--paths", "1") == EXIT_USAGE
        assert "X0" in capsys.readouterr().err


class TestPicardDiagnostics:
    def test_report(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("picard-diagnostics", "--config", cfg_path,
                       "--out-dir", str(out)) == EXIT_OK
        payload = json.loads((out / "picard_diagnostics.json").read_text())
        assert payload["converged"]
        assert payload["diagnostics"]["contracting"]

    def test_follows_the_solver_mode(self, tmp_path):
        """With solver.mode = regression the diagnostics solve on the
        recorded ensemble the adjoint command solves on: the same mode
        and the same Picard distances."""
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["solver"] = {"mode": "regression"}
        cfg["mc"]["n_paths"] = 64
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        diag, adj = tmp_path / "diag", tmp_path / "adj"
        assert run_cli("picard-diagnostics", "--config", str(path),
                       "--out-dir", str(diag)) == EXIT_OK
        assert run_cli("adjoint", "--config", str(path), "--out-dir",
                       str(adj), "--system", "first") == EXIT_OK
        payload = json.loads((diag / "picard_diagnostics.json").read_text())
        report = json.loads((adj / "picard_report.json").read_text())
        assert payload["mode"] == report["mode"] == "regression"
        assert payload["distances"] == report["distances"]
        assert payload["iterations"] == report["iterations"]


    def test_no_convergence_writes_the_partial_report(self, tmp_path,
                                                      capsys):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["solver"] = {"picard_max_iter": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("picard-diagnostics", "--config", str(path),
                       "--out-dir", str(out)) == EXIT_FAIL
        payload = json.loads((out / "picard_diagnostics.json").read_text())
        assert "did not reach tol=1e-12 within 1" in payload["error"]
        assert payload["iterations"] == 1 and not payload["converged"]
        assert len(payload["distances"]) == 1
        assert "diagnostics" not in payload
        assert capsys.readouterr().err.startswith("picard solve failed: ")

    @pytest.mark.parametrize("command", ["adjoint", "picard-diagnostics"])
    @pytest.mark.parametrize("key, value", [("picard_max_iter", 0),
                                            ("basis_degree", -1)])
    def test_solver_setting_is_a_usage_error(self, tmp_path, capsys, command,
                                             key, value):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["solver"] = {key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, "--config", str(path), "--out-dir",
                       str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: solver.{key} ")


class TestSweep:
    def test_shorthand_parameter(self, tmp_path):
        # X0 sets the example's constant initial segment, so the config
        # gives no segment of its own
        cfg = json.loads(json.dumps(BASE_CFG))
        del cfg["problem"]["initial_segment"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(path), "--out-dir", str(out),
                       "--param", "X0", "--values", "1.0,2.0",
                       "--paths", "8") == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "X0,J,stderr,tail_bound,n_paths"
        assert len(rows) == 3
        j1 = float(rows[1].split(",")[1])
        j2 = float(rows[2].split(",")[1])
        assert j2 > j1  # more initial wealth, more utility

    def test_dotted_path_parameter(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg_path, "--out-dir", str(out),
                       "--param", "problem.params.mu", "--values", "0.05",
                       "--paths", "8") == EXIT_OK

    def test_rho_shorthand_reaches_params(self, cfg_path, tmp_path):
        """BASE_CFG sets problem.params.rho, which coefficients_ex34
        reads before problem.rho: the shorthand must move both."""
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg_path, "--out-dir", str(out),
                       "--param", "rho", "--values", "0.05,0.3",
                       "--control", "constant:0.1") == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert float(rows[1].split(",")[1]) != float(rows[2].split(",")[1])

    def test_unknown_parameter(self, cfg_path, tmp_path):
        assert run_cli("sweep", "--config", cfg_path, "--out-dir",
                       str(tmp_path), "--param", "bogus", "--values",
                       "1.0") == EXIT_USAGE

    def test_bad_values(self, cfg_path, tmp_path):
        assert run_cli("sweep", "--config", cfg_path, "--out-dir",
                       str(tmp_path), "--param", "X0", "--values",
                       "abc") == EXIT_USAGE


class TestErrors:
    def test_missing_config(self, tmp_path):
        assert run_cli("objective", "--config", str(tmp_path / "none.json"),
                       "--out-dir", str(tmp_path)) == EXIT_USAGE

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path)) == EXIT_USAGE

    def test_grid_mismatch(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["grid"]["dt"] = 0.3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path)) == EXIT_USAGE

    @pytest.mark.parametrize("section, value", [
        ("grid", {"horizon": 3.0}),
        ("initial_segment", {"kind": "constant"}),
        ("jump", {"marks": {"kind": "discrete", "values": [0.1],
                            "probs": [1.0]}}),
        ("control", {"kind": "file"}),
    ])
    def test_missing_key(self, tmp_path, section, value):
        cfg = json.loads(json.dumps(BASE_CFG))
        if section == "initial_segment":
            cfg["problem"][section] = value
        else:
            cfg[section] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path)) == EXIT_USAGE

    def test_flags_supply_a_missing_grid_section(self, tmp_path):
        cfg = {key: value for key, value in BASE_CFG.items() if key != "grid"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(out), "--paths", "8", "--dt", "0.1",
                       "--horizon", "2") == EXIT_OK
        payload = json.loads((out / "objective.json").read_text())
        assert payload["truncation_T"] == 2.0

    def test_missing_grid_section_names_grid_dt(self, tmp_path, capsys):
        cfg = {key: value for key, value in BASE_CFG.items() if key != "grid"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'grid'" in err and "'dt'" in err

    @pytest.mark.parametrize("section", ["problem", "grid", "mc", "solver",
                                         "control", "search", None])
    def test_section_not_an_object(self, tmp_path, capsys, section):
        """Each section present, and the config itself, must be a JSON
        object; a null section is refused, not read as absent."""
        cfg = json.loads(json.dumps(BASE_CFG))
        if section is None:
            cfg = [cfg]
        else:
            cfg[section] = None
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path / "out")) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: config ")
        assert ("must hold a JSON object" if section is None
                else f"section {section!r} must be an object") in err

    def test_non_finite_state_exits_2(self, tmp_path, capsys):
        """dX = X^2 dt from X0 = 1 explodes before t = 1.7; the engine's
        NonFiniteState is a DelayCtrlError, so the command exits 2."""
        cfg = {"problem": {"selector": "custom_polynomial",
                           "params": {"b": [[1.0, 2, 0, 0, 0]]}},
               "grid": {"dt": 0.05, "horizon": 5.0},
               "mc": {"n_paths": 4, "seed": 0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path / "out"),
                       "--control", "constant:0") == EXIT_FAIL
        assert capsys.readouterr().err == (
            "error: state became non-finite at step 33 "
            "(t=1.65, block 0, lane 0)\n")

    def test_unknown_control_override(self, cfg_path, tmp_path):
        assert run_cli("simulate", "--config", cfg_path, "--out-dir",
                       str(tmp_path), "--control", "wavelet:3") == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["constant:abc", "constant:"])
    def test_constant_override_needs_a_number(self, cfg_path, tmp_path,
                                              capsys, flag):
        out = tmp_path / "out"
        assert run_cli("objective", "--config", cfg_path, "--out-dir",
                       str(out), "--control", flag) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: --control {flag}: V must be a number\n"
        assert not (out / "objective.json").exists()


class TestConfigSchema:
    """Every section and key of a config is checked against
    ``model.SETTINGS`` before anything runs: a misspelt key, or a value of
    the wrong type, exits 1 naming it instead of running the default or
    ending in a traceback.  ``sweep`` checks its parameter the same way
    before its first run."""

    @pytest.mark.parametrize("path, value, argv, message", [
        ("mc.n_path", 16, (), "mc has no key 'n_path'"),
        ("solver.mdoe", "regression", (), "solver has no key 'mdoe'"),
        ("gird", {}, (), "config has no section 'gird'"),
        (None, None, ("sweep", "--param", "mc.n_path", "--values", "8,16"),
         "mc has no key 'n_path'"),
        (None, None, ("sweep", "--param", "grid.horizn", "--values", "3,4"),
         "grid has no key 'horizn'"),
        (None, None, ("sweep", "--param", "solver.mode", "--values", "1"),
         "solver.mode must be one of"),
        ("solver.picard_tol", "1e-12", (), "solver.picard_tol must be a number"),
        ("problem.delta", "one", (), "problem.delta must be a number"),
        ("problem.control_bounds", ["a", 1], (),
         "problem.control_bounds must be an array"),
        ("problem.params.gamma", "x", (), "problem.params.gamma must be a number"),
        ("problem.params.rho", [0.1], (), "problem.params.rho must be a number"),
        ("problem", {"selector": "linear_quadratic", "params": {"kx": "x"}},
         (), "problem.params.kx must be a number"),
        ("problem.rho", "0.1", (), "problem.rho must be a number"),
        ("problem.lambda_avg", "x", (), "problem.lambda_avg must be a number"),
        ("problem.discount", True, (), "problem.discount must be a number"),
        ("problem.initial_segment.value", "1", (),
         "problem.initial_segment.value must be a number"),
        ("problem.initial_segment.slope", "s", (),
         "problem.initial_segment.slope must be a number"),
        ("grid.dt", "0.05", (), "grid.dt must be a number"),
        ("grid.horizon", None, (), "grid.horizon must be a number"),
        ("solver.weight_lambda", "2", (), "solver.weight_lambda must be"),
        ("solver.mode", "regresion", (), "solver.mode must be one of"),
        ("search.tol", 0, (), "search.tol must be a number in (0, inf)"),
        ("search.T_search", "80", (), "search.T_search must be a number"),
        ("control.value", "0.1", (), "control.value must be a number"),
        ("mc.n_paths", "16", (), "mc.n_paths must be an integer")])
    def test_refused_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                    path, value, argv, message):
        import delayctrl.cli as cli

        runs = []
        monkeypatch.setattr(cli, "estimate_J",
                            lambda *args, **kwargs: runs.append(args))
        cfg = json.loads(json.dumps(BASE_CFG))
        if path is not None:
            *parents, key = path.split(".")
            node = cfg
            for part in parents:
                node = node.setdefault(part, {})
            node[key] = value
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(*(argv or ("objective",)), "--config", str(config),
                       "--out-dir", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert runs == [] and not list(out.glob("*.*"))


    def test_manifest_records_the_resolved_settings(self, cfg_path,
                                                    tmp_path):
        """Beside config_hash, every key of the table with the value the
        run read: given, set by a flag, or the default; "default" for
        one worked out at run time."""
        out = tmp_path / "out"
        assert run_cli("objective", "--config", cfg_path, "--out-dir",
                       str(out), "--paths", "8") == EXIT_OK
        settings = json.loads((out / "manifest.json").read_text())["settings"]
        assert set(settings) == {f"{name}.{key}" for name, key in SETTINGS}
        assert settings["mc.n_paths"] == 8 and settings["mc.seed"] == 3
        assert settings["problem.params"] == BASE_CFG["problem"]["params"]
        assert settings["mc.horizon_fractions"] == [0.25, 0.5, 1.0]
        assert settings["solver.mode"] == "deterministic"
        assert settings["mc.bump_windows"] == "default"
        assert settings["control.path"] == "default"


class TestRunSettings:
    """mc.n_paths, mc.seed and mc.threads, from a config or a flag, are
    integers in their ranges; any other value exits 1 naming the key."""

    @pytest.mark.parametrize("flag, value, key", [
        ("--paths", "0", "mc.n_paths"), ("--paths", "-5", "mc.n_paths"),
        ("--seed", "-1", "mc.seed"), ("--threads", "0", "mc.threads")])
    def test_flag_out_of_range(self, cfg_path, tmp_path, capsys, flag, value,
                               key):
        assert run_cli("objective", "--config", cfg_path, "--out-dir",
                       str(tmp_path / "out"), flag, value) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {key} ")

    @pytest.mark.parametrize("key, value", [
        ("n_paths", 1.5), ("n_paths", True), ("n_paths", "16"),
        ("seed", 2 ** 64), ("threads", 0.5)])
    def test_config_value_refused(self, tmp_path, capsys, key, value):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["mc"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: mc.{key} ")

    @pytest.mark.parametrize("section", [None, [1]])
    def test_mc_section_not_an_object(self, tmp_path, capsys, section):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg["mc"] = section
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("objective", "--config", str(path), "--out-dir",
                       str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: config section 'mc'")

    def test_largest_seed_runs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("objective", "--config", cfg_path, "--out-dir",
                       str(out), "--paths", "4",
                       "--seed", str(2 ** 64 - 1)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2 ** 64 - 1

    def test_sweep_checks_every_value_before_running(self, cfg_path,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        import delayctrl.cli as cli

        calls = []
        monkeypatch.setattr(cli, "estimate_J",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg_path, "--out-dir", str(out),
                       "--param", "n_paths",
                       "--values", "8,1.5,2.7") == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: mc.n_paths ")
        assert calls == [] and not (out / "sweep.csv").exists()


COMMON_OPTIONS = [
    (["--config"], "config", None, None, None, False),
    (["--seed"], "seed", "int", None, None, False),
    (["--paths"], "paths", "int", None, None, False),
    (["--dt"], "dt", "float", None, None, False),
    (["--horizon"], "horizon", "float", None, None, False),
    (["--threads"], "threads", "int", None, None, False),
    (["--out-dir"], "out_dir", None, None, None, False),
    (["--control"], "control", None, None, None, False),
]
WEIGHT_LAMBDA = (["--weight-lambda"], "weight_lambda", "float", None, None,
                 False)
# (handler, options after the common ones) of each subcommand, in order
PARSER_SNAPSHOT = {
    "simulate": ("cmd_simulate", []),
    "objective": ("cmd_objective", []),
    "adjoint": ("cmd_adjoint", [
        (["--system"], "system", None, "first", ["first", "second"], False),
        WEIGHT_LAMBDA]),
    "check": ("cmd_check", [
        (["--principle"], "principle", None, None,
         ["sufficient1", "sufficient2", "necessary"], True)]),
    "example34": ("cmd_example34", []),
    "example35": ("cmd_example35", []),
    "picard-diagnostics": ("cmd_picard_diagnostics", [WEIGHT_LAMBDA]),
    "sweep": ("cmd_sweep", [(["--param"], "param", None, None, None, True),
                            (["--values"], "values", None, None, None, True)]),
}


def test_parser_snapshot():
    """Each subcommand's handler and options: strings, dest, type,
    default, choices and whether it is required, in order."""
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    got = [(name, sp.get_default("fn").__name__,
            [(a.option_strings, a.dest, getattr(a.type, "__name__", None),
              a.default, None if a.choices is None else list(a.choices),
              a.required)
             for a in sp._actions if not isinstance(a, argparse._HelpAction)])
           for name, sp in subs.choices.items()]
    assert got == [(name, fn, COMMON_OPTIONS + extra)
                   for name, (fn, extra) in PARSER_SNAPSHOT.items()]


class TestCsvFormat:
    """The CSV files are byte for byte what a per-row formatter writes:
    each value as format(float(v), ".17g"), the sweep's n_paths as
    str(n)."""

    SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.0 ** 53, 0.1,
               -1.0 / 3.0]

    @staticmethod
    def reference(header, rows, int_columns=()):
        lines = [",".join(header)]
        lines += [",".join(str(v) if j in int_columns
                           else format(float(v), ".17g")
                           for j, v in enumerate(row)) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("n_rows", [0, 1, 8])
    def test_path_record(self, tmp_path, n_rows):
        values = np.resize(self.SPECIAL, 5 * n_rows)
        cols = np.random.default_rng(n_rows).permutation(values).reshape(
            5, n_rows)
        rec = PathRecord(*cols, dB=np.zeros(max(n_rows - 1, 0)))
        path = tmp_path / "path.csv"
        rec.to_csv(str(path))
        assert path.read_bytes() == self.reference("tXYAu", zip(*cols))

    @pytest.mark.parametrize("values", ["-0.0,1e-320", "0.05"])
    def test_sweep(self, cfg_path, tmp_path, monkeypatch, values):
        import delayctrl.cli as cli

        estimates = [ObjectiveEstimate(mean=-0.0, stderr=np.nan, n_paths=16,
                                       truncation_T=3.0, tail_bound=np.inf),
                     ObjectiveEstimate(mean=5e-324, stderr=2.0 ** 53,
                                       n_paths=1024, truncation_T=3.0,
                                       tail_bound=-np.inf)]
        pending = iter(estimates)
        monkeypatch.setattr(cli, "estimate_J",
                            lambda *args, **kwargs: next(pending))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg_path, "--out-dir", str(out),
                       "--param", "sigma0", f"--values={values}") == EXIT_OK
        rows = [(float(v), est.mean, est.stderr, est.tail_bound, est.n_paths)
                for v, est in zip(values.split(","), estimates)]
        assert (out / "sweep.csv").read_bytes() == self.reference(
            ("sigma0", "J", "stderr", "tail_bound", "n_paths"), rows, (4,))


def test_readme_minimal_config(tmp_path):
    """README's minimal config builds and runs as printed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A minimal config:", 1)[1]
    cfg = json.loads(block.split("```json\n", 1)[1].split("```", 1)[0])
    spec = build_problem(cfg)
    assert spec.initial_segment(0.0) == 1.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("objective", "--config", str(path), "--out-dir", str(out),
                   "--paths", "16") == EXIT_OK
    assert np.isfinite(json.loads((out / "objective.json").read_text())["mean"])
