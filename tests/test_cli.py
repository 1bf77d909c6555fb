"""Command-line interface: subcommands, exit codes, manifests, CSV
formats, and override precedence."""

import hashlib
import json

import numpy as np
import pytest

from delayctrl.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

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

    def test_second_system(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("adjoint", "--config", cfg_path, "--out-dir",
                       str(out), "--system", "second") == EXIT_OK
        data = np.genfromtxt(out / "adjoint_second.csv", delimiter=",",
                             names=True)
        assert data["p1"][0] > 0
        np.testing.assert_allclose(data["p2"], 0.0, atol=1e-12)


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


class TestExamples:
    def test_example34_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("example34", "--config", cfg_path, "--out-dir",
                       str(out)) == EXIT_OK
        payload = json.loads((out / "example34.json").read_text())
        assert payload["p0_star"] == pytest.approx(0.15 ** -0.5, rel=1e-12)
        data = np.genfromtxt(out / "example34.csv", delimiter=",", names=True)
        assert set(data.dtype.names) == {"t", "p1", "X", "u"}

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


class TestPicardDiagnostics:
    def test_report(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("picard-diagnostics", "--config", cfg_path,
                       "--out-dir", str(out)) == EXIT_OK
        payload = json.loads((out / "picard_diagnostics.json").read_text())
        assert payload["converged"]
        assert payload["diagnostics"]["contracting"]


class TestSweep:
    def test_shorthand_parameter(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg_path, "--out-dir", str(out),
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

    def test_unknown_control_override(self, cfg_path, tmp_path):
        assert run_cli("simulate", "--config", cfg_path, "--out-dir",
                       str(tmp_path), "--control", "wavelet:3") == EXIT_USAGE
