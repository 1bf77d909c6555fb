"""The four benchmark workloads (see NOTES.md for why each exists).

``WORKLOADS[name](seed, workdir)`` does the untimed set-up: it builds every
input from the seed and returns the workload's ops as ``(name, callable)``
pairs.  One pass of a workload runs each op once, in order.  An op returns an
``Outcome``: whether its output check held, a one-line detail, the digests of
its outputs, and the documented defect it reproduced, if any.

The ops call delayctrl only through module attributes so that the
instrumentation in ``instrument.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from delayctrl import (absde, adjoint, cli, examples, forward, hamiltonian,
                       model, objective)

DEFAULT_SEED = 0

CRN_PATHS = 4096
CRN_SCALES = (0.8, 0.95, 1.1, 1.2)
CRN_BUMPS = 4
JUMP_PATHS = 2048
REG_PATHS = 2048
PROBE_PATHS = 512


@dataclass
class Outcome:
    ok: bool
    detail: str
    digests: dict = field(default_factory=dict)  # key -> sha256 hex | floats
    defect: Optional[str] = None
    counts: dict = field(default_factory=dict)  # extra per-layer counters


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _stack(records, keys="XYAu"):
    return {k: np.stack([getattr(rec, k) for rec in records]) for k in keys}


# ---------------------------------------------------------------------------
# crn_compare
# ---------------------------------------------------------------------------

def crn_compare(seed: int, workdir: str):
    params = examples.Example34Params(sigma0=0.2)
    p0 = examples.ex34_p0_star(params)
    spec = examples.make_ex34_problem(params, delta=1.0, u_hi=1e4)
    grid = model.make_grid(1.0, 0.1, 60.0)
    ctl = examples.ex34_feedback(params, p0)
    alts = [(f"scale_{s}", forward.scale_control(ctl, s)) for s in CRN_SCALES]
    rng = np.random.default_rng(seed)
    for i in range(CRN_BUMPS):
        start = float(rng.uniform(0.0, 54.0))
        width = float(rng.uniform(2.0, 6.0))
        alpha = -float(rng.uniform(0.02, 0.08))
        alts.append((f"bump_{i}", forward.bump_control(ctl, alpha, start, width,
                                                       grid.horizon)))
    state = {}

    def base():
        state["base"] = None
        est = objective.estimate_J(spec, grid, ctl, CRN_PATHS, seed)
        state["base"] = est
        tail = est.tail_bound / abs(est.mean)
        return Outcome(bool(np.isfinite(est.mean) and tail < 1e-3),
                       f"J={est.mean:.6f} +/- {est.stderr:.1e}, tail/|J|={tail:.1e}",
                       {"per_path": sha(est.per_path)})

    def compare(alt):
        def op():
            est = objective.estimate_J(spec, grid, alt, CRN_PATHS, seed)
            d = state["base"].per_path - est.per_path
            mean = float(np.mean(d))
            se = float(np.std(d, ddof=1) / np.sqrt(CRN_PATHS))
            return Outcome(mean + 2 * se >= 0.0,
                           f"margin {mean:+.3e}, stderr {se:.1e}",
                           {"per_path": sha(est.per_path)})
        return op

    return [("base", base)] + [(name, compare(alt)) for name, alt in alts]


# ---------------------------------------------------------------------------
# jump_ito
# ---------------------------------------------------------------------------

def jump_problem() -> model.ProblemSpec:
    """Geometric jump-diffusion dX = 0.05 X dt + 0.2 X dB + X z dN~ with
    intensity 0.5 and marks {-0.1, 0.2}.  Built in code: a config ``jump``
    section is inert because no selector supplies theta."""
    def b(t, x, y, a, u):
        return 0.05 * np.asarray(x, float)

    def sigma(t, x, y, a, u):
        return 0.2 * np.asarray(x, float)

    def theta(t, x, y, a, u, z):
        return np.asarray(x, float) * z

    def f(t, x, y, a, u):
        return np.zeros_like(np.asarray(x, float))

    coeffs = model.CoefficientSet(b=b, sigma=sigma, theta=theta, f=f)
    jump = model.JumpModel(intensity=0.5, marks=model.DiscreteMarks(
        values=np.array([-0.1, 0.2]), probs=np.array([0.5, 0.5])))
    return model.ProblemSpec(
        delta=0.5, rho=0.1, lambda_avg=0.1, discount=0.1, coeffs=coeffs,
        control_lo=0.0, control_hi=1.0,
        initial_segment=lambda s: np.full_like(np.asarray(s, float), 1.0),
        jump=jump)


def jump_ito(seed: int, workdir: str):
    spec = jump_problem()
    grid = model.make_grid(0.5, 1e-3, 1.0)
    square = hamiltonian.ItoTestFunction(
        F=lambda t, x, a: x ** 2,
        F_t=lambda t, x, a: 0.0 * np.asarray(x, float),
        F_x=lambda t, x, a: 2.0 * np.asarray(x, float),
        F_xx=lambda t, x, a: 2.0 + 0.0 * np.asarray(x, float),
        F_a=lambda t, x, a: 0.0 * np.asarray(x, float))
    ctl = forward.constant_control(0.0)

    def residual():
        mean, se = hamiltonian.ito_delay_residual(spec, grid, square, ctl,
                                                  JUMP_PATHS, seed)
        return Outcome(abs(mean) <= 3 * se,
                       f"mean {mean:+.3e}, stderr {se:.1e} ({mean / se:+.2f} se)",
                       {"mean_stderr": sha(np.array([mean, se]))})

    return [("ito_residual", residual)]


# ---------------------------------------------------------------------------
# regression_adjoint
# ---------------------------------------------------------------------------

def philox_increments(seed: int, n_paths: int, grid) -> np.ndarray:
    """dB as the noise contract defines it: block j of seed s draws
    full-width standard normals from Philox key s * 2^64 + j, one draw per
    step, and lane i of the block takes entry i."""
    width = forward.BLOCK_SIZE
    out = np.empty((n_paths, grid.n))
    sqdt = np.sqrt(grid.dt)
    for block in range(-(-n_paths // width)):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + block))
        lanes = slice(block * width, min(n_paths, (block + 1) * width))
        nb = lanes.stop - lanes.start
        for k in range(grid.n):
            out[lanes, k] = sqdt * rng.standard_normal(width)[:nb]
    return out


def regression_adjoint(seed: int, workdir: str):
    params = examples.Example34Params(sigma0=0.05)
    p0 = examples.ex34_p0_star(params)
    spec = examples.make_ex34_problem(params, delta=1.0, u_hi=50.0)
    ctl = examples.ex34_feedback(params, p0)
    grid = model.make_grid(1.0, 0.05, 5.0)
    probe_grid = model.make_grid(1.0, 0.05, 10.0)
    expected_dB = philox_increments(seed, REG_PATHS, grid)
    state = {}

    def ensemble():
        state["records"] = None
        res = forward.simulate_ensemble(spec, grid, ctl, REG_PATHS, seed,
                                        record=True)
        S = _stack(res.records, ("X", "Y", "A", "u", "dB"))
        n, m = grid.n, grid.m
        finite = all(bool(np.all(np.isfinite(v))) for v in S.values())
        lag = bool(np.array_equal(S["Y"][:, m:], S["X"][:, : n + 1 - m]))
        noise = bool(np.array_equal(S["dB"], expected_dB))
        state["records"] = res.records
        return Outcome(finite and lag and noise,
                       f"finite {finite}, Y lag bitwise {lag}, dB = Philox replay {noise}",
                       {"paths": sha(*S.values())})

    def solve():
        triple, report = adjoint.solve_first_adjoint(
            spec, grid, ctl, ensemble=state["records"],
            solver_cfg={"basis_degree": 2})
        p, q = triple.p_on_grid(), triple.q_on_grid()
        ok = report.converged and bool(np.all(np.isfinite(triple.p)))
        return Outcome(ok, f"converged in {report.iterations} iterations, "
                           f"p(0) = {p[0]:.6f}",
                       {"p": p.tolist(), "q": q.tolist()})

    def weight_probe():
        res = forward.simulate_ensemble(spec, probe_grid, ctl, PROBE_PATHS,
                                        seed, record=True)
        driver = adjoint.build_first_driver(spec, probe_grid,
                                            _stack(res.records),
                                            deterministic=False)
        lam = absde.auto_weight(driver.lipschitz, probe_grid.delta)
        unit = np.ones((PROBE_PATHS, probe_grid.n + 1 + probe_grid.m))
        with np.errstate(all="ignore"):
            dist, _, _ = absde.weighted_distance(probe_grid, lam, unit,
                                                 ensemble=True)
        # the normalized distance of a unit increment is 1 for any weight
        detail = (f"weight lambda {lam:.4g}, lambda*T {lam * probe_grid.horizon:.4g}, "
                  f"unit distance {dist}")
        healthy = math.isfinite(dist) and abs(dist - 1.0) < 1e-9
        return Outcome(bool(math.isfinite(lam) and lam > 0), detail,
                       defect=None if healthy else "weighted norm overflows at T=10")

    return [("ensemble", ensemble), ("solve", solve),
            ("weight_probe_T10", weight_probe)]


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def _ex34_config(seed):
    return {
        "problem": {
            "selector": "example_3_4",
            "params": {"gamma": 0.5, "mu": 0.05, "rho": 0.1, "sigma0": 0.05,
                       "X0": 1.0},
            "delta": 1.0, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
            "control_bounds": [0.0, 50.0],
            "initial_segment": {"kind": "constant", "value": 1.0},
        },
        "grid": {"dt": 0.01, "horizon": 10.0},
        "mc": {"n_paths": 1024, "seed": seed, "threads": 1},
    }


# K that ex35_K finds with the default search (T 80, dt 0.01).  Giving it
# keeps ``adjoint --system second`` from repeating that search, which takes
# longer than the rest of a pass; ``example35`` still runs a search.
EX35_K = 3.192668142


def _ex35_config(seed):
    return {
        "problem": {
            "selector": "example_3_5",
            "params": {"sigma0": 0.0},
            "delta": 1.0, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
            "control_bounds": [0.0, 1.0],
            "initial_segment": {"kind": "constant", "value": 1.0},
        },
        "grid": {"dt": 0.01, "horizon": 10.0},
        "mc": {"n_paths": 1024, "seed": seed, "threads": 1},
        "search": {"T_search": 80.0, "dt": 0.1},
        "control": {"kind": "closed_form", "p0": EX35_K},
    }


def _json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _csv(out, name):
    return np.genfromtxt(os.path.join(out, name), delimiter=",", names=True)


def _check_example34(rc, out):
    d = _json(out, "example34.json")
    ok = (rc == 0 and math.isclose(d["p0_star"], 0.15 ** -0.5, rel_tol=1e-12)
          and math.isfinite(d["objective"]))
    return ok, f"p0* {d['p0_star']:.10g}, J {d['objective']:.10g}"


def _check_example35(rc, out):
    d = _json(out, "example35.json")
    ok = rc == 0 and d["K"] > 0 and abs(d["alpha_residual"]) <= 1e-14
    return ok, f"K {d['K']:.10g}"


def _check_adjoint_second(rc, out):
    data = _csv(out, "adjoint_second.csv")
    p3 = float(np.max(np.abs(data["p3"])))
    return (rc == 0 and data["p1"][0] > 0 and p3 <= 1e-6,
            f"p1(0) {data['p1'][0]:.10g}, max|p3| {p3:.1e}")


def _check_picard(name):
    def check(rc, out):
        d = _json(out, name)
        ok = rc == 0 and d["converged"]
        if "diagnostics" in d:
            ok = ok and d["diagnostics"]["contracting"]
        return ok, f"{d['iterations']} iterations"
    return check


def _check_objective(rc, out):
    d = _json(out, "objective.json")
    ok = rc == 0 and math.isfinite(d["mean"]) and d["stderr"] > 0
    return ok, f"J {d['mean']:.10g} +/- {d['stderr']:.2e}"


def _check_verdict(principle, expected):
    def check(rc, out):
        verdict = _json(out, f"check_{principle}.json")["verdict"]
        return rc == 0 and verdict == expected, f"verdict {verdict}"
    return check


def _check_sufficient1(rc, out):
    d = _json(out, "check_sufficient1.json")
    trans = ", ".join(f"T={r['T']:g}: {r['estimate']:+.3f} (se {r['stderr']:.3f})"
                      for r in d["transversality"])
    ok = (rc, d["verdict"]) in ((0, "pass"), (2, "fail"))
    defect = None
    if d["verdict"] == "fail":
        defect = "closed-form optimum fails the sufficiency check"
    return ok, f"verdict {d['verdict']}; transversality {trans}", defect


def _check_simulate(n_paths, n_steps):
    def check(rc, out):
        files = sorted(f for f in os.listdir(out) if f.startswith("path_"))
        rows = {sum(1 for _ in open(os.path.join(out, f))) for f in files}
        ok = rc == 0 and len(files) == n_paths and rows == {n_steps + 2}
        return ok, f"{len(files)} path files, rows {sorted(rows)}"
    return check


def _check_sweep(rc, out):
    data = np.atleast_1d(_csv(out, "sweep.csv"))
    ok = rc == 0 and len(data) == 3 and bool(np.all(np.isfinite(data["J"])))
    return ok, "J " + ", ".join(f"{v:.6f}" for v in data["J"])


def cli_session(seed: int, workdir: str):
    c34 = os.path.join(workdir, "ex34.json")
    c35 = os.path.join(workdir, "ex35.json")
    for path, cfg in ((c34, _ex34_config(seed)), (c35, _ex35_config(seed))):
        with open(path, "w") as fh:
            json.dump(cfg, fh)
    n_steps = model.make_grid(1.0, 0.01, 10.0).n
    plan = [
        ("example34", ["example34", "--config", c34], _check_example34),
        ("example35", ["example35", "--config", c35], _check_example35),
        ("adjoint_second", ["adjoint", "--config", c35, "--system", "second"],
         _check_adjoint_second),
        ("adjoint_first", ["adjoint", "--config", c34, "--system", "first"],
         _check_picard("picard_report.json")),
        ("picard_diagnostics", ["picard-diagnostics", "--config", c34],
         _check_picard("picard_diagnostics.json")),
        ("objective", ["objective", "--config", c34, "--paths", "4096"],
         _check_objective),
        ("necessary", ["check", "--config", c34, "--principle", "necessary"],
         _check_verdict("necessary", "pass")),
        ("sufficient1", ["check", "--config", c34, "--principle", "sufficient1"],
         _check_sufficient1),
        ("simulate", ["simulate", "--config", c34, "--paths", "64"],
         _check_simulate(64, n_steps)),
        ("sweep", ["sweep", "--config", c34, "--param", "sigma0",
                   "--values", "0,0.1,0.2"], _check_sweep),
    ]

    def command(name, argv, check):
        def op():
            out = os.path.join(workdir, "out", name)
            shutil.rmtree(out, ignore_errors=True)
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                rc = cli.main(argv + ["--out-dir", out])
            digests, size = {}, 0
            for fname in sorted(os.listdir(out)):
                path = os.path.join(out, fname)
                size += os.path.getsize(path)
                # manifest.json holds timestamps
                if fname != "manifest.json" and fname.endswith((".csv", ".json")):
                    with open(path, "rb") as fh:
                        digests[fname] = hashlib.sha256(fh.read()).hexdigest()
            ok, detail, *defect = check(rc, out)
            shutil.rmtree(out, ignore_errors=True)
            return Outcome(bool(ok), f"exit {rc}; {detail}", digests,
                           defect[0] if defect else None,
                           {"cli.output_bytes": size})
        return op

    return [(name, command(name, argv, check)) for name, argv, check in plan]


WORKLOADS = {
    "crn_compare": crn_compare,
    "jump_ito": jump_ito,
    "regression_adjoint": regression_adjoint,
    "cli_session": cli_session,
}
