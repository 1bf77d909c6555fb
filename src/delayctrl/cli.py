"""Configuration-driven command line for reproducible experiments.

Subcommands: simulate, objective, adjoint, check, example34, example35,
picard-diagnostics, sweep.  A JSON config file supplies the problem,
grid, Monte Carlo, solver and control sections; command-line flags
override matching config entries.  ``main`` runs every command the same
way: it loads the config, sets the flags and checks the result against
``model.SETTINGS`` before anything runs, hands the command one run
(``_Run``, whose problem and grid are built at first use), and writes
``manifest.json`` once the command returns: its outputs, the SHA-256
hash of the config bytes and the resolved settings.  A command that
raises or exits with a usage error writes no manifest.

Exit codes: 0 ok, 1 usage or configuration error, 2 check failed or
solver did not converge, 3 the necessary check's ``boundary`` verdict
(the candidate sits on a control bound at most probe times, where the
first-order condition need not hold).
"""

from __future__ import annotations

import argparse
import copy
import datetime
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .absde import contraction_diagnostics, picard_solve
from .adjoint import (_grid_function, prepare_first_adjoint,
                      solve_second_adjoint)
from .errors import (BadInterval, BadWeight, BadWindow, ConfigError,
                     DelayCtrlError, GridMismatch, NoConvergence)
from .examples import (Example34Params, Example35Params, ex34_adjoint,
                       ex34_control, ex34_feedback, ex34_objective,
                       ex34_p0_star, ex34_state, ex35_adjoint,
                       ex35_alpha_residual, ex35_feedback, ex35_K,
                       ex35_matched_alpha, example_params)
from .forward import constant_control, simulate_ensemble, table_control
from .model import (SETTINGS, _mc_settings, _write_csv, build_problem,
                    check_config, make_grid, setting)
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
    """(config, its bytes): a JSON object, else a ConfigError."""
    if path is None:
        return {}, b"{}"
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg, raw


# Each flag that overrides a config entry: flag -> (section, key); the
# table types its value.  --weight-lambda belongs to adjoint and
# picard-diagnostics only.
_OVERRIDES = {
    "--seed": ("mc", "seed"),
    "--paths": ("mc", "n_paths"),
    "--dt": ("grid", "dt"),
    "--horizon": ("grid", "horizon"),
    "--threads": ("mc", "threads"),
    "--weight-lambda": ("solver", "weight_lambda"),
}


def _set_path(cfg, keys, value):
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _apply_overrides(cfg: dict, args) -> dict:
    """A copy of ``cfg`` with the given override flags set; its grid and
    mc sections always exist."""
    cfg = copy.deepcopy(cfg)
    cfg.setdefault("grid", {})
    cfg.setdefault("mc", {})
    for flag, (section, key) in _OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            _set_path(cfg, (section, key), value)
    return cfg


def _build(cfg):
    """Problem and grid; build_problem has checked that the grid section
    (which _apply_overrides always creates) sets dt and horizon."""
    spec = build_problem(cfg)
    grid = make_grid(spec.delta, setting(cfg["grid"], "grid", "dt"),
                     setting(cfg["grid"], "grid", "horizon"))
    return spec, grid


def _resolve_control(cfg, grid, override=None):
    """(control, adjoint) from the config's ``control`` section or a CLI
    override of the form closed_form | constant:V | file:PATH; the
    adjoint is the closed form's p_fn, None for any other kind."""
    ctl = dict(cfg.get("control", {}))
    if override:
        if override == "closed_form":
            ctl["kind"] = "closed_form"
        elif override.startswith("constant:"):
            try:
                ctl = {"kind": "constant", "value": float(override[9:])}
            except ValueError:
                raise ConfigError(f"--control {override}: V must be a number")
        elif override.startswith("file:"):
            ctl = {"kind": "file", "path": override.split(":", 1)[1]}
        else:
            raise ConfigError(f"unknown control specifier {override!r}")
    kind = setting(ctl, "control", "kind")
    if kind == "closed_form":
        params = example_params(cfg)
        p0 = setting(ctl, "control", "p0")
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
        return constant_control(setting(ctl, "control", "value")), None
    path = setting(ctl, "control", "path")
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


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


class _Run:
    """One command's run: config, its (n_paths, seed, threads), problem,
    output directory and manifest.  The config, with the override flags
    set, is checked against the settings table before anything runs."""

    def __init__(self, args):
        cfg, raw = _load_config(args.config)
        self.cfg = _apply_overrides(cfg, args)
        settings = check_config(self.cfg)
        self.mc = _mc_settings(self.cfg["mc"])
        self.out_dir = args.out_dir or "."
        os.makedirs(self.out_dir, exist_ok=True)
        self.manifest = {"command": args.command, "seed": self.mc[1],
                         "config_hash": hashlib.sha256(raw).hexdigest(),
                         "settings": settings,
                         "started": _now(), "version": __version__,
                         "outputs": []}

    @functools.cached_property
    def problem(self):
        """(spec, grid) of the config, built at first use."""
        return _build(self.cfg)

    def path(self, name):
        self.manifest["outputs"].append(name)
        return os.path.join(self.out_dir, name)

    def write_json(self, name, payload):
        _write_json(self.path(name), payload)

    def record_solve(self, report):
        """Where a regression solve's projections ran, and how long this
        process waited for its q/r worker (``PicardReport.execution``)."""
        if report is not None and report.execution:
            self.manifest["solve"] = report.execution

    def finish(self):
        self.manifest["finished"] = _now()
        _write_json(os.path.join(self.out_dir, "manifest.json"), self.manifest)


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _solve_first(run, spec, grid, control):
    """(driver, triple, report) of the first adjoint under ``control``, in
    the solver section's mode: ``"regression"`` solves on mc.n_paths paths
    recorded under the control, anything else along the noiseless path.
    A caller that does not read the driver slices it off (``[1:]``), so
    that it is freed as soon as the solve returns."""
    solver_cfg = run.cfg.get("solver", {})
    ensemble = None
    if setting(solver_cfg, "solver", "mode") == "regression":
        n_paths, seed, threads = run.mc
        ensemble = simulate_ensemble(spec, grid, control, n_paths, seed,
                                     record=True, threads=threads).arrays
    driver, options = prepare_first_adjoint(
        spec, grid, control, solver_cfg=solver_cfg, ensemble=ensemble)
    del ensemble  # the solve reads the context's arrays, not the recorded u
    return (driver, *picard_solve(driver, grid, **options))


def _picard_failure(run, name, exc, what):
    """Write the partial Picard report of a failed solve plus the error
    to ``name`` and return EXIT_FAIL."""
    report = getattr(exc, "report", None)
    run.record_solve(report)
    payload = report.as_dict() if report is not None else {}
    payload["error"] = str(exc)
    run.write_json(name, payload)
    print(f"{what} failed: {exc}", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(run, args):
    spec, grid = run.problem
    n_paths, seed, threads = run.mc
    control, _ = _resolve_control(run.cfg, grid, args.control)
    res = simulate_ensemble(spec, grid, control, n_paths, seed,
                            record=True, threads=threads)
    for i, rec in enumerate(res.records):
        rec.to_csv(run.path(f"path_{i:05d}.csv"))
    print(f"simulated {n_paths} paths on [0, {grid.horizon:g}] "
          f"(dt={grid.dt:g}, seed={seed})")
    return EXIT_OK


def cmd_objective(run, args):
    spec, grid = run.problem
    n_paths, seed, threads = run.mc
    control, _ = _resolve_control(run.cfg, grid, args.control)
    est = estimate_J(spec, grid, control, n_paths, seed, threads=threads)
    run.write_json("objective.json", {
        "mean": est.mean, "stderr": est.stderr, "n_paths": est.n_paths,
        "truncation_T": est.truncation_T, "tail_bound": est.tail_bound,
        "exited_fraction": est.exited_fraction,
    })
    print(f"J = {est.mean:.10g} +/- {est.stderr:.4g} "
          f"(N={est.n_paths}, tail bound {est.tail_bound:.4g})")
    return EXIT_OK


def cmd_adjoint(run, args):
    spec, grid = run.problem
    control, _ = _resolve_control(run.cfg, grid, args.control)

    if args.system == "second":
        result = solve_second_adjoint(spec, grid, control)
        result.to_csv(run.path("adjoint_second.csv"))
        print(f"second adjoint solved; p1(0) = {result.p1[0]:.10g}, "
              f"max|p3| = {np.max(np.abs(result.p3)):.4g}")
        return EXIT_OK

    try:
        triple, report = _solve_first(run, spec, grid, control)[1:]
    except (NoConvergence, BadWeight) as exc:
        return _picard_failure(run, "picard_report.json", exc, "adjoint solve")
    triple.to_csv(run.path("adjoint_first.csv"))
    run.write_json("picard_report.json", report.as_dict())
    run.record_solve(report)
    print(f"first adjoint solved in {report.iterations} Picard iterations "
          f"(weight lambda = {report.weight_lambda:.4g})")
    return EXIT_OK


def _verdict_exit(verdict):
    if verdict == "pass":
        return EXIT_OK
    if verdict == "boundary":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def cmd_check(run, args):
    spec, grid = run.problem
    candidate, p_fn = _resolve_control(run.cfg, grid, args.control)
    if p_fn is None and args.principle != "sufficient2":
        # solve the candidate's adjoint and sample it on the grid (the
        # ensemble mean in regression mode); only p on the grid is held,
        # not the solved triple, whose per-path p, q and r a regression
        # solve keeps
        triple, report = _solve_first(run, spec, grid, candidate)[1:]
        p_fn = _grid_function(grid, triple.p_on_grid())
        del triple
        run.record_solve(report)

    mc_cfg = run.cfg["mc"]
    comparisons = [constant_control(0.5 * (spec.control_lo + spec.control_hi))]
    if args.principle == "sufficient1":
        report = check_sufficient_first(spec, grid, candidate, comparisons,
                                        p_fn, mc_cfg)
    elif args.principle == "sufficient2":
        report = check_sufficient_second(
            spec, grid, candidate, comparisons,
            solve_second_adjoint(spec, grid, candidate), mc_cfg)
    else:
        report = necessary_residual(spec, grid, candidate, p_fn, mc_cfg)

    payload = report.as_dict()
    run.write_json(f"check_{args.principle}.json", payload)
    with open(run.path(f"check_{args.principle}.txt"), "w") as fh:
        fh.write(f"principle: {args.principle}\n")
        fh.write(f"verdict:   {report.verdict}\n")
        for key, value in payload.items():
            if key == "verdict":
                continue
            fh.write(f"{key}: {value}\n")
    print(f"{args.principle}: {report.verdict}")
    return _verdict_exit(report.verdict)


def cmd_example34(run, args):
    _, grid = run.problem
    params = example_params(run.cfg)
    if not isinstance(params, Example34Params):
        raise ConfigError("example34 requires selector example_3_4")
    p0 = ex34_p0_star(params)

    def row(t):
        x = ex34_state(params, t, p0)
        return t, ex34_adjoint(params, t, p0), x, ex34_control(params, t, x, p0)

    _write_csv(run.path("example34.csv"), ("t", "p1", "X", "u"),
               [row(t) for t in grid.times])
    run.write_json("example34.json", {
        "p0_star": p0, "objective": ex34_objective(params, p0)})
    print(f"p1(0)* = {p0:.10g}, closed-form J = {ex34_objective(params, p0):.10g}")
    return EXIT_OK


def cmd_example35(run, args):
    _, grid = run.problem
    params = example_params(run.cfg)
    if not isinstance(params, Example35Params):
        raise ConfigError("example35 requires selector example_3_5")
    K = ex35_K(params, run.cfg.get("search"))
    p1 = [ex35_adjoint(params, t, K) for t in grid.times]
    _write_csv(run.path("example35.csv"), ("t", "p1", "p2"), [
        (t, v, v * params.beta * np.exp(params.rho * params.delta))
        for t, v in zip(grid.times, p1)])
    run.write_json("example35.json", {
        "K": K,
        "matched_alpha": ex35_matched_alpha(params),
        "alpha_residual": ex35_alpha_residual(params),
    })
    print(f"K = {K:.10g}, matched alpha = {ex35_matched_alpha(params):.10g}")
    return EXIT_OK


def cmd_picard_diagnostics(run, args):
    spec, grid = run.problem
    control, _ = _resolve_control(run.cfg, grid, args.control)
    try:
        driver, _, report = _solve_first(run, spec, grid, control)
    except (NoConvergence, BadWeight) as exc:
        return _picard_failure(run, "picard_diagnostics.json", exc,
                               "picard solve")
    run.record_solve(report)
    diag = contraction_diagnostics(report, driver, spec.delta)
    payload = report.as_dict()
    payload["diagnostics"] = diag
    run.write_json("picard_diagnostics.json", payload)
    ratios = ", ".join(f"{r:.3g}" for r in report.ratios)
    print(f"converged={report.converged} iterations={report.iterations} "
          f"ratios=[{ratios}]")
    return EXIT_OK


# sweep --param shorthands: the example parameters, the problem's rates
# and the keys of four override flags
_SWEEP_SHORTHAND = {
    **{name: ("problem", "params", name)
       for name in ("gamma", "mu", "beta", "alpha", "sigma0", "X0")},
    "rho": ("problem", "rho"),
    "delta": ("problem", "delta"),
    **{key: (section, key) for section, key in map(
        _OVERRIDES.get, ("--seed", "--paths", "--dt", "--horizon"))},
}


def cmd_sweep(run, args):
    name = args.param
    keys = _SWEEP_SHORTHAND.get(name, tuple(name.split(".")))
    if ".".join(keys[:-1]) not in {"problem.params",
                                   *(section for section, _ in SETTINGS)}:
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

    # every value's config, problem, grid and run settings are checked
    # before the first run
    points = []
    for value in values:
        cfg = copy.deepcopy(run.cfg)
        _set_path(cfg, keys, value)
        # the example parameters read problem.params.rho before problem.rho
        if name == "rho" and "rho" in cfg["problem"].get("params", {}):
            cfg["problem"]["params"]["rho"] = value
        check_config(cfg)
        points.append((value, cfg, *_build(cfg), _mc_settings(cfg["mc"])))

    rows = []
    for value, cfg, spec, grid, (n_paths, seed, threads) in points:
        control, _ = _resolve_control(cfg, grid, args.control)
        est = estimate_J(spec, grid, control, n_paths, seed, threads=threads)
        rows.append((value, est.mean, est.stderr, est.tail_bound, est.n_paths))
    _write_csv(run.path("sweep.csv"),
               (name, "J", "stderr", "tail_bound", "n_paths"), rows)
    for value, mean, stderr, *_ in rows:
        print(f"{name}={value:g}: J = {mean:.10g} +/- {stderr:.4g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_override(sub, flag):
    section, key = _OVERRIDES[flag]
    sub.add_argument(flag, type=SETTINGS[section, key][1].convert or float,
                     help=f"override {section}.{key}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delayctrl",
        description="Simulation, adjoint solving and optimality checks "
                    "for delayed stochastic control problems")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, text in (
            ("simulate", cmd_simulate, "simulate paths and write CSVs"),
            ("objective", cmd_objective, "Monte Carlo objective estimate"),
            ("adjoint", cmd_adjoint, "solve an adjoint system"),
            ("check", cmd_check, "run an optimality check"),
            ("example34", cmd_example34,
             "closed forms for the no-delay benchmark"),
            ("example35", cmd_example35,
             "closed forms for the delayed benchmark"),
            ("picard-diagnostics", cmd_picard_diagnostics,
             "contraction diagnostics for the Picard solver"),
            ("sweep", cmd_sweep, "sweep a parameter and tabulate J")):
        sp = commands[name] = subs.add_parser(name, help=text)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", help="JSON configuration file")
        for flag in _OVERRIDES:
            if flag != "--weight-lambda":
                _add_override(sp, flag)
        sp.add_argument("--out-dir", help="directory for outputs (default .)")
        sp.add_argument("--control",
                        help="closed_form | constant:V | file:PATH")

    commands["adjoint"].add_argument("--system", choices=("first", "second"),
                                     default="first")
    _add_override(commands["adjoint"], "--weight-lambda")
    commands["check"].add_argument(
        "--principle", required=True,
        choices=("sufficient1", "sufficient2", "necessary"))
    _add_override(commands["picard-diagnostics"], "--weight-lambda")
    commands["sweep"].add_argument(
        "--param", required=True,
        help="config key (dotted path or shorthand like gamma)")
    commands["sweep"].add_argument("--values", required=True,
                                   help="comma-separated numeric values")
    return parser


def main(argv=None) -> int:
    """Run one subcommand and write its manifest once it returns, unless
    it exits with a usage error; a command that raises writes none."""
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args)
        code = args.fn(run, args)
    except (ConfigError, GridMismatch, BadInterval, BadWindow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DelayCtrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if code != EXIT_USAGE:
        run.finish()
    return code


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
