"""Configuration-driven command line for reproducible experiments.

Subcommands: simulate, objective, adjoint, check, example34, example35,
picard-diagnostics, sweep.  A JSON config file supplies the problem,
grid, Monte Carlo, solver and control sections; command-line flags
override matching config entries.  Every command writes a manifest
listing its outputs together with the SHA-256 hash of the config bytes.

Exit codes: 0 ok, 1 usage or configuration error, 2 check failed or
solver did not converge, 3 the necessary check's ``boundary`` verdict
(the candidate sits on a control bound at most probe times, where the
first-order condition need not hold).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .absde import contraction_diagnostics, picard_solve
from .adjoint import (prepare_first_adjoint, solve_first_adjoint,
                      solve_second_adjoint)
from .errors import (BadInterval, BadWeight, BadWindow, ConfigError,
                     DelayCtrlError, GridMismatch, NoConvergence)
from .examples import (Example34Params, Example35Params, ex34_adjoint,
                       ex34_control, ex34_feedback, ex34_objective,
                       ex34_p0_star, ex34_state, ex35_adjoint,
                       ex35_alpha_residual, ex35_feedback, ex35_K,
                       ex35_matched_alpha, example_params)
from .forward import constant_control, simulate_ensemble, table_control
from .model import build_problem, make_grid, require_key
from .mp import check_sufficient_first, check_sufficient_second, necessary_residual
from .objective import estimate_J

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path):
    if path is None:
        return {}, b"{}"
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(raw.decode()), raw
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = copy.deepcopy(cfg)
    grid = cfg.setdefault("grid", {})
    mc = cfg.setdefault("mc", {})
    if args.dt is not None:
        grid["dt"] = args.dt
    if args.horizon is not None:
        grid["horizon"] = args.horizon
    if args.seed is not None:
        mc["seed"] = args.seed
    if args.paths is not None:
        mc["n_paths"] = args.paths
    if args.threads is not None:
        mc["threads"] = args.threads
    if getattr(args, "weight_lambda", None) is not None:
        cfg.setdefault("solver", {})["weight_lambda"] = args.weight_lambda
    return cfg


def _build(cfg):
    """Problem and grid; build_problem has checked that the grid section
    (which _apply_overrides always creates) sets dt and horizon."""
    spec = build_problem(cfg)
    grid = make_grid(spec.delta, float(cfg["grid"]["dt"]),
                     float(cfg["grid"]["horizon"]))
    return spec, grid


def _mc_settings(cfg):
    mc = cfg.get("mc", {})
    return (int(mc.get("n_paths", 1000)), int(mc.get("seed", 0)),
            int(mc.get("threads", 1)))


def _resolve_control(cfg, grid, override=None):
    """(control, adjoint) from the config's ``control`` section or a CLI
    override of the form closed_form | constant:V | file:PATH; the
    adjoint is the closed form's p_fn, None for any other kind."""
    ctl = dict(cfg.get("control", {}))
    if override:
        if override == "closed_form":
            ctl["kind"] = "closed_form"
        elif override.startswith("constant:"):
            ctl = {"kind": "constant", "value": float(override.split(":", 1)[1])}
        elif override.startswith("file:"):
            ctl = {"kind": "file", "path": override.split(":", 1)[1]}
        else:
            raise ConfigError(f"unknown control specifier {override!r}")
    kind = ctl.get("kind", "closed_form")
    if kind == "closed_form":
        params = example_params(cfg)
        p0 = ctl.get("p0")
        if isinstance(params, Example34Params):
            p0 = ex34_p0_star(params) if p0 is None else float(p0)
            return (ex34_feedback(params, p0),
                    lambda t, x, y, a: ex34_adjoint(params, t, p0))
        if isinstance(params, Example35Params):
            p0 = ex35_K(params, cfg.get("search")) if p0 is None else float(p0)
            return (ex35_feedback(params, p0),
                    lambda t, x, y, a: ex35_adjoint(params, t, p0))
        selector = cfg.get("problem", {}).get("selector")
        raise ConfigError(f"no closed-form control for selector {selector!r}")
    if kind == "constant":
        return constant_control(float(ctl.get("value", 0.0))), None
    if kind == "file":
        path = require_key(ctl, "control", "path")
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except OSError as exc:
            raise ConfigError(f"cannot read control table {path}: {exc}") from exc
        if "u" not in (data.dtype.names or ()):
            raise ConfigError(f"control table {path} has no 'u' column")
        table = np.atleast_1d(np.asarray(data["u"], float))
        if len(table) < grid.n + 1:
            raise ConfigError(
                f"control table has {len(table)} rows, grid needs {grid.n + 1}")
        return table_control(table[: grid.n + 1]), None
    raise ConfigError(f"unknown control kind {kind!r}")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RunManifest:
    command: str
    config_hash: str
    seed: int
    started: str
    finished: str = ""
    version: str = __version__
    outputs: list = dataclasses.field(default_factory=list)

    def write(self, out_dir):
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


class _Run:
    """Shared per-command state: config, output directory, manifest."""

    def __init__(self, args, command):
        cfg, raw = _load_config(args.config)
        self.cfg = _apply_overrides(cfg, args)
        self.out_dir = args.out_dir or "."
        os.makedirs(self.out_dir, exist_ok=True)
        _, seed, _ = _mc_settings(self.cfg)
        self.manifest = RunManifest(
            command=command,
            config_hash=hashlib.sha256(raw).hexdigest(),
            seed=seed,
            started=datetime.datetime.now(datetime.timezone.utc).isoformat())

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.manifest.outputs.append(name)
        return p

    def write_json(self, name, payload):
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")
        return p

    def finish(self):
        self.manifest.write(self.out_dir)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _fmt(v):
    return format(float(v), ".17g")


def _reference_ensemble(run, spec, grid, control, solver_cfg):
    """The ensemble the first adjoint is solved on in the solver section's
    mode: ``"regression"`` records mc.n_paths paths under the control
    (their arrays); anything else gives None, the noiseless path."""
    if solver_cfg.get("mode") != "regression":
        return None
    n_paths, seed, threads = _mc_settings(run.cfg)
    return simulate_ensemble(spec, grid, control, n_paths, seed,
                             record=True, threads=threads).arrays


def _solve_first(run, spec, grid, control, solver_cfg):
    """solve_first_adjoint in the solver section's mode."""
    return solve_first_adjoint(
        spec, grid, control, solver_cfg=solver_cfg,
        ensemble=_reference_ensemble(run, spec, grid, control, solver_cfg))


def _picard_failure(run, name, exc, what):
    """Write the partial Picard report of a failed solve plus the error
    to ``name`` and return EXIT_FAIL."""
    report = getattr(exc, "report", None)
    payload = report.as_dict() if report is not None else {}
    payload["error"] = str(exc)
    run.write_json(name, payload)
    run.finish()
    print(f"{what} failed: {exc}", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    run = _Run(args, "simulate")
    spec, grid = _build(run.cfg)
    n_paths, seed, threads = _mc_settings(run.cfg)
    control, _ = _resolve_control(run.cfg, grid, args.control)
    res = simulate_ensemble(spec, grid, control, n_paths, seed,
                            record=True, threads=threads)
    for i, rec in enumerate(res.records):
        rec.to_csv(run.path(f"path_{i:05d}.csv"))
    run.finish()
    print(f"simulated {n_paths} paths on [0, {grid.horizon:g}] "
          f"(dt={grid.dt:g}, seed={seed})")
    return EXIT_OK


def cmd_objective(args):
    run = _Run(args, "objective")
    spec, grid = _build(run.cfg)
    n_paths, seed, threads = _mc_settings(run.cfg)
    control, _ = _resolve_control(run.cfg, grid, args.control)
    est = estimate_J(spec, grid, control, n_paths, seed, threads=threads)
    run.write_json("objective.json", {
        "mean": est.mean, "stderr": est.stderr, "n_paths": est.n_paths,
        "truncation_T": est.truncation_T, "tail_bound": est.tail_bound,
        "exited_fraction": est.exited_fraction,
    })
    run.finish()
    print(f"J = {est.mean:.10g} +/- {est.stderr:.4g} "
          f"(N={est.n_paths}, tail bound {est.tail_bound:.4g})")
    return EXIT_OK


def cmd_adjoint(args):
    run = _Run(args, "adjoint")
    spec, grid = _build(run.cfg)
    solver_cfg = run.cfg.get("solver", {})
    control, _ = _resolve_control(run.cfg, grid, args.control)

    if args.system == "second":
        result = solve_second_adjoint(spec, grid, control, solver_cfg)
        result.to_csv(run.path("adjoint_second.csv"))
        run.finish()
        print(f"second adjoint solved; p1(0) = {result.p1[0]:.10g}, "
              f"max|p3| = {np.max(np.abs(result.p3)):.4g}")
        return EXIT_OK

    try:
        triple, report = _solve_first(run, spec, grid, control, solver_cfg)
    except (NoConvergence, BadWeight) as exc:
        return _picard_failure(run, "picard_report.json", exc, "adjoint solve")
    triple.to_csv(run.path("adjoint_first.csv"))
    run.write_json("picard_report.json", report.as_dict())
    run.finish()
    print(f"first adjoint solved in {report.iterations} Picard iterations "
          f"(weight lambda = {report.weight_lambda:.4g})")
    return EXIT_OK


def _verdict_exit(verdict):
    if verdict == "pass":
        return EXIT_OK
    if verdict == "boundary":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_check(args):
    run = _Run(args, "check")
    spec, grid = _build(run.cfg)
    n_paths, seed, threads = _mc_settings(run.cfg)
    candidate, p_fn = _resolve_control(run.cfg, grid, args.control)
    mc_cfg = dict(run.cfg.get("mc", {}))
    mc_cfg.update({"n_paths": n_paths, "seed": seed, "threads": threads})

    if args.principle in ("sufficient1", "necessary"):
        if p_fn is None:
            # solve the candidate's adjoint and interpolate it in time
            # (the ensemble mean in regression mode)
            triple, _ = _solve_first(run, spec, grid, candidate,
                                     run.cfg.get("solver", {}))
            p_grid = triple.p_on_grid()

            def p_fn(t, x, y, a, _pg=p_grid):
                k = min(grid.n, int(round(np.asarray(t, float) / grid.dt)))
                return np.broadcast_to(_pg[k], np.shape(x))
        mc_cfg["adjoint"] = p_fn

    if args.principle == "sufficient1":
        comparisons = [constant_control(0.5 * (spec.control_lo + spec.control_hi))]
        report = check_sufficient_first(spec, grid, candidate, comparisons, mc_cfg)
    elif args.principle == "sufficient2":
        mc_cfg["adjoint2"] = solve_second_adjoint(spec, grid, candidate,
                                                  run.cfg.get("solver"))
        comparisons = [constant_control(0.5 * (spec.control_lo + spec.control_hi))]
        report = check_sufficient_second(spec, grid, candidate, comparisons, mc_cfg)
    elif args.principle == "necessary":
        report = necessary_residual(spec, grid, candidate, mc_cfg)
    else:
        raise ConfigError(f"unknown principle {args.principle!r}")

    payload = report.as_dict()
    run.write_json(f"check_{args.principle}.json", payload)
    with open(run.path(f"check_{args.principle}.txt"), "w") as fh:
        fh.write(f"principle: {args.principle}\n")
        fh.write(f"verdict:   {report.verdict}\n")
        for key, value in payload.items():
            if key == "verdict":
                continue
            fh.write(f"{key}: {value}\n")
    run.finish()
    print(f"{args.principle}: {report.verdict}")
    return _verdict_exit(report.verdict)


def cmd_example34(args):
    run = _Run(args, "example34")
    spec, grid = _build(run.cfg)
    params = example_params(run.cfg)
    if not isinstance(params, Example34Params):
        raise ConfigError("example34 requires selector example_3_4")
    p0 = ex34_p0_star(params)
    ts = grid.times
    with open(run.path("example34.csv"), "w") as fh:
        fh.write("t,p1,X,u\n")
        for k in range(grid.n + 1):
            x = ex34_state(params, ts[k], p0)
            p1 = ex34_adjoint(params, ts[k], p0)
            u = ex34_control(params, ts[k], x, p0)
            fh.write(",".join(_fmt(v) for v in (ts[k], p1, x, u)) + "\n")
    run.write_json("example34.json", {
        "p0_star": p0, "objective": ex34_objective(params, p0)})
    run.finish()
    print(f"p1(0)* = {p0:.10g}, closed-form J = {ex34_objective(params, p0):.10g}")
    return EXIT_OK


def cmd_example35(args):
    run = _Run(args, "example35")
    spec, grid = _build(run.cfg)
    params = example_params(run.cfg)
    if not isinstance(params, Example35Params):
        raise ConfigError("example35 requires selector example_3_5")
    K = ex35_K(params, run.cfg.get("search"))
    ts = grid.times
    with open(run.path("example35.csv"), "w") as fh:
        fh.write("t,p1,p2\n")
        for k in range(grid.n + 1):
            p1 = ex35_adjoint(params, ts[k], K)
            p2 = p1 * params.beta * np.exp(params.rho * params.delta)
            fh.write(",".join(_fmt(v) for v in (ts[k], p1, p2)) + "\n")
    run.write_json("example35.json", {
        "K": K,
        "matched_alpha": ex35_matched_alpha(params),
        "alpha_residual": ex35_alpha_residual(params),
    })
    run.finish()
    print(f"K = {K:.10g}, matched alpha = {ex35_matched_alpha(params):.10g}")
    return EXIT_OK


def cmd_picard_diagnostics(args):
    run = _Run(args, "picard-diagnostics")
    spec, grid = _build(run.cfg)
    solver_cfg = run.cfg.get("solver", {})
    control, _ = _resolve_control(run.cfg, grid, args.control)
    driver, options = prepare_first_adjoint(
        spec, grid, control, solver_cfg=solver_cfg,
        ensemble=_reference_ensemble(run, spec, grid, control, solver_cfg))
    try:
        _, report = picard_solve(driver, grid, **options)
    except (NoConvergence, BadWeight) as exc:
        return _picard_failure(run, "picard_diagnostics.json", exc,
                               "picard solve")
    diag = contraction_diagnostics(report, driver, spec.delta)
    payload = report.as_dict()
    payload["diagnostics"] = diag
    run.write_json("picard_diagnostics.json", payload)
    run.finish()
    ratios = ", ".join(f"{r:.3g}" for r in report.ratios)
    print(f"converged={report.converged} iterations={report.iterations} "
          f"ratios=[{ratios}]")
    return EXIT_OK


_SWEEP_SHORTHAND = {
    "gamma": ("problem", "params", "gamma"),
    "mu": ("problem", "params", "mu"),
    "beta": ("problem", "params", "beta"),
    "alpha": ("problem", "params", "alpha"),
    "sigma0": ("problem", "params", "sigma0"),
    "X0": ("problem", "params", "X0"),
    "rho": ("problem", "rho"),
    "delta": ("problem", "delta"),
    "seed": ("mc", "seed"),
    "n_paths": ("mc", "n_paths"),
    "dt": ("grid", "dt"),
    "horizon": ("grid", "horizon"),
}


def _set_path(cfg, keys, value):
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def cmd_sweep(args):
    run = _Run(args, "sweep")
    name = args.param
    keys = _SWEEP_SHORTHAND.get(name, tuple(name.split(".")))
    if keys[0] not in ("problem", "grid", "mc", "solver", "control"):
        print(f"sweep: unknown parameter {name!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError:
        print(f"sweep: values must be numeric, got {args.values!r}",
              file=sys.stderr)
        return EXIT_USAGE
    if not values:
        print("sweep: empty value list", file=sys.stderr)
        return EXIT_USAGE

    rows = []
    for value in values:
        cfg = copy.deepcopy(run.cfg)
        cast = int(value) if keys[-1] in ("seed", "n_paths", "threads") else value
        _set_path(cfg, list(keys), cast)
        # the example parameters read problem.params.rho before problem.rho
        if name == "rho" and "rho" in cfg["problem"].get("params", {}):
            cfg["problem"]["params"]["rho"] = cast
        spec, grid = _build(cfg)
        n_paths, seed, threads = _mc_settings(cfg)
        control, _ = _resolve_control(cfg, grid, args.control)
        est = estimate_J(spec, grid, control, n_paths, seed, threads=threads)
        rows.append((value, est))

    with open(run.path("sweep.csv"), "w") as fh:
        fh.write(f"{name},J,stderr,tail_bound,n_paths\n")
        for value, est in rows:
            fh.write(",".join([
                _fmt(value), _fmt(est.mean), _fmt(est.stderr),
                _fmt(est.tail_bound), str(est.n_paths)]) + "\n")
    run.finish()
    for value, est in rows:
        print(f"{name}={value:g}: J = {est.mean:.10g} +/- {est.stderr:.4g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _global_flags(sub):
    sub.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--seed", type=int, help="override mc.seed")
    sub.add_argument("--paths", type=int, help="override mc.n_paths")
    sub.add_argument("--dt", type=float, help="override grid.dt")
    sub.add_argument("--horizon", type=float, help="override grid.horizon")
    sub.add_argument("--threads", type=int, help="override mc.threads")
    sub.add_argument("--out-dir", help="directory for outputs (default .)")
    sub.add_argument("--control",
                     help="closed_form | constant:V | file:PATH")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delayctrl",
        description="Simulation, adjoint solving and optimality checks "
                    "for delayed stochastic control problems")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("simulate", help="simulate paths and write CSVs")
    _global_flags(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = subs.add_parser("objective", help="Monte Carlo objective estimate")
    _global_flags(sp)
    sp.set_defaults(fn=cmd_objective)

    sp = subs.add_parser("adjoint", help="solve an adjoint system")
    _global_flags(sp)
    sp.add_argument("--system", choices=("first", "second"), default="first")
    sp.add_argument("--weight-lambda", type=float,
                    help="override the Picard norm weight")
    sp.set_defaults(fn=cmd_adjoint)

    sp = subs.add_parser("check", help="run an optimality check")
    _global_flags(sp)
    sp.add_argument("--principle", required=True,
                    choices=("sufficient1", "sufficient2", "necessary"))
    sp.set_defaults(fn=cmd_check)

    sp = subs.add_parser("example34", help="closed forms for the no-delay benchmark")
    _global_flags(sp)
    sp.set_defaults(fn=cmd_example34)

    sp = subs.add_parser("example35", help="closed forms for the delayed benchmark")
    _global_flags(sp)
    sp.set_defaults(fn=cmd_example35)

    sp = subs.add_parser("picard-diagnostics",
                         help="contraction diagnostics for the Picard solver")
    _global_flags(sp)
    sp.add_argument("--weight-lambda", type=float,
                    help="override the Picard norm weight")
    sp.set_defaults(fn=cmd_picard_diagnostics)

    sp = subs.add_parser("sweep", help="sweep a parameter and tabulate J")
    _global_flags(sp)
    sp.add_argument("--param", required=True,
                    help="config key (dotted path or shorthand like gamma)")
    sp.add_argument("--values", required=True,
                    help="comma-separated numeric values")
    sp.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GridMismatch, BadInterval, BadWindow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DelayCtrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
