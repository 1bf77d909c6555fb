"""Call-boundary instrumentation of delayctrl, applied from outside the package.

``Instrument(level)`` replaces functions and methods of the delayctrl modules
with wrappers while it is installed and restores the originals afterwards.

* ``count`` wraps only the two simulation entry points, ``simulate_ensemble``
  and ``simulate_noiseless``, and counts lane-steps, plus ``McContext.project``;
  after each of these calls it invokes ``checkpoint`` when one is set.
  End-to-end runs use it: it costs a few microseconds per ensemble and about
  one per projection, nothing per step.
* ``trace`` wraps the public module-level functions of every module, plus the
  methods in ``_METHODS``, in timing spans, and keeps the counters that the
  per-layer metrics need.

Modules bind each other's functions by name (``from .forward import
simulate_ensemble``), so a wrapper replaces every reference to the original
object in every delayctrl module namespace.  Callers outside the package must
call through module attributes (``objective.estimate_J``) to be seen.

Spans stay in memory as parallel arrays (name id, start, end, parent index)
for one run id.  Spans are strictly nested because the engine runs with
``threads=1``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

from delayctrl import errors, forward

LAYERS = ("model", "forward", "objective", "hamiltonian", "absde", "adjoint",
          "mp", "examples", "cli")

# Methods timed besides the public module-level functions.  The coefficient
# callbacks and ``ControlSpec.raw`` are left out on purpose: they are called
# inside the spans below many times per step and count as their caller's time.
_METHODS = {
    "model": ("ProblemSpec.validate_segment", "JumpModel.nu_integral"),
    "forward": ("ControlSpec.evaluate", "PathRecord.to_csv"),
    "objective": ("RunningRewardAccumulator.begin",
                  "RunningRewardAccumulator.step",
                  "RunningRewardAccumulator.finish"),
    "hamiltonian": ("_ItoResidualAccumulator.begin",
                    "_ItoResidualAccumulator.step",
                    "_ItoResidualAccumulator.finish"),
    "absde": ("McContext.project", "AdjointTriple.to_csv"),
    "adjoint": ("SecondAdjointResult.to_csv",),
    "mp": ("TerminalStateAccumulator.begin", "TerminalStateAccumulator.step",
           "TerminalStateAccumulator.finish", "ChainRuleAccumulator.begin",
           "ChainRuleAccumulator.step", "ChainRuleAccumulator.finish"),
}

# Long loops without simulation calls, where a ``count`` install calls the
# checkpoint too, so that a long op can be timed in stretches.
_CHECKPOINTED = ("absde.McContext.project",)

MP_CHECKS = ("mp.check_sufficient_first", "mp.check_sufficient_second",
             "mp.necessary_residual", "mp.variational_consistency")


class Spans:
    """In-memory span store: one entry per wrapped call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self):
        # copies: a live buffer view would stop the arrays from growing
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end))

    def save(self, path: str):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


def _has_jumps(spec) -> bool:
    jump = spec.jump
    return (jump is not None and spec.coeffs.theta is not None
            and jump.intensity > 0)


class Instrument:
    """Install with ``with Instrument(level, spans) as ins:``; counters
    accumulate in ``ins.counts`` across installs."""

    def __init__(self, level: str, spans: Spans | None = None):
        if level not in ("count", "trace"):
            raise ValueError(f"unknown level {level!r}")
        self.level = level
        self.spans = spans
        self.counts = Counter()
        self.noise_keys: list | None = None  # set to [] to record draws
        self.checkpoint = None  # called after each simulation call
        self._saved: list = []

    # -- counters fed by hooks -------------------------------------------

    def _after_ensemble(self, bound, out, exc):
        a = bound.arguments
        spec, grid, n_paths = a["spec"], a["grid"], int(a["n_paths"])
        n = grid.n
        blocks = -(-n_paths // forward.BLOCK_SIZE)
        c = self.counts
        c["forward.ensemble_calls"] += 1
        c["forward.path_steps"] += n_paths * n
        c["ensemble_lane_steps"] += n_paths * n
        if self.checkpoint is not None:
            self.checkpoint()
        if self.level != "trace":
            return
        marks = spec.jump.n_marks if _has_jumps(spec) else 0
        c["forward.blocks"] += blocks
        c["block_steps"] += blocks * n
        c["forward.noise_variates"] += blocks * n * forward.BLOCK_SIZE * (1 + marks)
        if a.get("record"):
            per_path = 8 * (4 * (n + 1) + n + marks * n)
            if a.get("beta") is not None:
                per_path += 8 * (n + 1)
            c["forward.record_bytes"] += n_paths * per_path
        if isinstance(exc, errors.NonFiniteState):
            c["forward.nonfinite_errors"] += 1
        if self.noise_keys is not None:
            lams = ()
            if marks:
                lams = tuple(spec.jump.intensity * float(p) * grid.dt
                             for p in spec.jump.marks.probs)
            self.noise_keys.append((int(a["seed"]), blocks, n, lams))

    def _after_noiseless(self, bound, out, exc):
        n = bound.arguments["grid"].n
        self.counts["forward.noiseless_calls"] += 1
        self.counts["forward.noiseless_steps"] += n
        self.counts["forward.path_steps"] += n
        if self.checkpoint is not None:
            self.checkpoint()

    def _after_picard(self, bound, out, exc):
        report = out[1] if exc is None else getattr(exc, "report", None)
        if report is not None:
            self.counts["absde.iterations"] += report.iterations
        if isinstance(exc, (errors.NoConvergence, errors.BadWeight)):
            self.counts["absde.failures"] += 1

    def _after_necessary(self, bound, out, exc):
        if exc is not None:
            return
        # each estimate simulates control +/- s*alpha*1_window; (alpha, s)
        # and (-alpha, -s) are the same control
        distinct = set()
        for b in out.bump_estimates:
            shift = b["alpha"] * b["s"]
            window = tuple(b["window"])
            distinct.add((window, shift))
            distinct.add((window, -shift))
        self.counts["mp.bump_ensembles"] += 2 * len(out.bump_estimates)
        self.counts["mp.bump_controls_distinct"] += len(distinct)

    def _after_cli_main(self, bound, out, exc):
        if exc is not None or out != 0:
            self.counts["cli.nonzero_exits"] += 1

    def _after_first_driver(self, bound, out, exc):
        # time the driver closure too: it is adjoint code called from absde
        if exc is None:
            return dataclasses.replace(
                out, fn=self._wrap(out.fn, "adjoint.driver_fn", None))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, hook):
        """A span around ``fn`` (trace level), then ``hook(bound arguments,
        result, exception)``; a hook may return a replacement result."""
        spans = self.spans if self.level == "trace" else None
        if hook is None:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                idx = spans.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans.close(idx)
            return timed

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            idx = spans.open(name) if spans else None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if spans:
                    spans.close(idx)
                hook(sig.bind(*args, **kwargs), None, exc)
                raise
            if spans:
                spans.close(idx)
            replaced = hook(sig.bind(*args, **kwargs), out, None)
            return out if replaced is None else replaced
        return hooked

    def _checkpointed(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.checkpoint is not None:
                self.checkpoint()
            return out
        return wrapped

    def _hooks(self):
        hooks = {"forward.simulate_ensemble": self._after_ensemble,
                 "forward.simulate_noiseless": self._after_noiseless}
        if self.level == "trace":
            hooks.update({
                "absde.picard_solve": self._after_picard,
                "mp.necessary_residual": self._after_necessary,
                "cli.main": self._after_cli_main,
                "adjoint.build_first_driver": self._after_first_driver,
            })
        return hooks

    def _targets(self):
        """(span name, owner, attribute, original) for every wrapped name."""
        hooks = self._hooks()
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"delayctrl.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if self.level == "trace" or name in hooks:
                    out.append((name, mod, attr, obj))
            for qual in _METHODS.get(layer, ()):
                name = f"{layer}.{qual}"
                if self.level == "trace" or name in _CHECKPOINTED:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    out.append((name, cls, meth, cls.__dict__[meth]))
        return out

    def __enter__(self):
        hooks = self._hooks()
        replace = {}
        for name, owner, attr, orig in self._targets():
            if self.level == "count" and name in _CHECKPOINTED:
                new = self._checkpointed(orig)
            else:
                new = self._wrap(orig, name, hooks.get(name))
            if inspect.isclass(owner):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            else:
                replace[id(orig)] = (orig, new)
        # rebind every module-level reference, including re-exports
        for modname, mod in list(sys.modules.items()):
            if modname != "delayctrl" and not modname.startswith("delayctrl."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc_info):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from spans and counters
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "other"


def self_times(spans: Spans):
    """Per-span duration and self time (duration minus direct children)."""
    name, parent, start, end = spans.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur, dur - child


def _under(spans: Spans, roots: set) -> np.ndarray:
    """Per span: whether it or an ancestor carries a name in ``roots``."""
    name, parent, _, _ = spans.arrays()
    ids = {i for i, nm in enumerate(spans.names) if nm in roots}
    flag = np.zeros(len(name), dtype=bool)
    for i, (nid, par) in enumerate(zip(name.tolist(), parent.tolist())):
        flag[i] = nid in ids or (par >= 0 and flag[par])
    return flag


def layer_metrics(spans: Spans, counts: Counter, pass_roots: list) -> dict:
    """Per-layer metrics per traced pass (totals divided by pass count).

    ``pass_roots`` holds, per traced pass, the indices of its op spans (the
    top-level spans the bench opens around each op); the spans under a root
    run from it to the next top-level span in index order."""
    name, parent, _, _ = spans.arrays()
    dur, self_t = self_times(spans)
    npass = len(pass_roots)
    roots = np.array([r for ops in pass_roots for r in ops], dtype=int)
    tops = np.append(np.flatnonzero(parent == -1), len(name))
    in_pass = np.zeros(len(name), dtype=bool)
    for root in roots:
        in_pass[root:tops[np.searchsorted(tops, root, side="right")]] = True
    names = np.array(spans.names + [""])
    span_names = names[name] if len(name) else np.array([], dtype=str)

    def total(*which, weights=dur):
        sel = in_pass & np.isin(span_names, which)
        return float(np.sum(weights[sel])) / npass

    def calls(*which):
        return float(np.count_nonzero(in_pass & np.isin(span_names, which))) / npass

    def per(key):
        return float(counts.get(key, 0)) / npass

    layer_of = np.array([_layer(nm) for nm in spans.names] + ["other"])
    span_layer = layer_of[name] if len(name) else np.array([], dtype=str)
    m = {}
    for layer in LAYERS + ("other",):
        m[f"{layer}.self_s"] = float(np.sum(self_t[in_pass & (span_layer == layer)])) / npass
    m["trace.wall_s"] = float(np.sum(dur[roots])) / npass

    ens = "forward.simulate_ensemble"
    lane_steps = per("ensemble_lane_steps")
    block_steps = per("block_steps")
    m.update({
        "forward.ensemble_calls": calls(ens),
        "forward.ensemble_s": total(ens),
        "forward.engine_self_s": total(ens, "forward.simulate_path",
                                       "forward.simulate_variational",
                                       weights=self_t),
        "forward.path_steps": per("forward.path_steps"),
        "forward.ns_per_path_step": (1e9 * total(ens) / lane_steps
                                     if lane_steps else 0.0),
        "forward.blocks": per("forward.blocks"),
        "forward.noise_variates": per("forward.noise_variates"),
        "forward.lane_fill": (lane_steps / (forward.BLOCK_SIZE * block_steps)
                              if block_steps else 0.0),
        "forward.control_eval_calls": calls("forward.ControlSpec.evaluate"),
        "forward.control_eval_s": total("forward.ControlSpec.evaluate"),
        "forward.record_bytes": per("forward.record_bytes"),
        "forward.nonfinite_errors": per("forward.nonfinite_errors"),
        "forward.noiseless_calls": calls("forward.simulate_noiseless"),
        "forward.noiseless_steps": per("forward.noiseless_steps"),
        "forward.noiseless_s": total("forward.simulate_noiseless"),
    })
    steps = m["forward.noiseless_steps"]
    m["forward.noiseless_us_per_step"] = (1e6 * m["forward.noiseless_s"] / steps
                                          if steps else 0.0)

    acc = ("RunningRewardAccumulator.begin", "RunningRewardAccumulator.step",
           "RunningRewardAccumulator.finish")
    m.update({
        "objective.estimate_calls": calls("objective.estimate_J"),
        "objective.estimate_s": total("objective.estimate_J"),
        "objective.accumulator_s": total(*(f"objective.{a}" for a in acc)),
        "hamiltonian.accumulator_s": total(*(f"hamiltonian.{q}"
                                             for q in _METHODS["hamiltonian"])),
        "hamiltonian.grad_calls": calls("hamiltonian.grad_H"),
        "hamiltonian.grad_s": total("hamiltonian.grad_H"),
    })

    project = "absde.McContext.project"
    project_calls = calls(project)
    m.update({
        "absde.solve_calls": calls("absde.picard_solve"),
        "absde.solve_s": total("absde.picard_solve"),
        "absde.iterations": per("absde.iterations"),
        "absde.failures": per("absde.failures"),
        "absde.project_calls": project_calls,
        "absde.project_s": total(project),
        "absde.project_us_per_call": (1e6 * total(project) / project_calls
                                      if project_calls else 0.0),
        "adjoint.first_s": total("adjoint.solve_first_adjoint"),
        "adjoint.second_s": total("adjoint.solve_second_adjoint"),
        "adjoint.driver_build_s": total("adjoint.build_first_driver"),
    })

    under_mp = _under(spans, set(MP_CHECKS))
    bump_ens = per("mp.bump_ensembles")
    m.update({
        "mp.check_calls": calls(*MP_CHECKS),
        "mp.check_s": total(*MP_CHECKS),
        "mp.ensembles": float(np.count_nonzero(
            in_pass & under_mp & (span_names == ens))) / npass,
        "mp.accumulator_s": total(*(f"mp.{q}" for q in _METHODS["mp"])),
        "mp.distinct_bump_frac": (per("mp.bump_controls_distinct") / bump_ens
                                  if bump_ens else 0.0),
    })

    under_k = _under(spans, {"examples.ex35_K"})
    m.update({
        "examples.k_search_calls": calls("examples.ex35_K"),
        "examples.k_search_s": total("examples.ex35_K"),
        "examples.k_search_runs": float(np.count_nonzero(
            in_pass & under_k & (span_names == "forward.simulate_noiseless"))) / npass,
        "cli.calls": calls("cli.main"),
        "cli.s": total("cli.main"),
        "cli.output_bytes": per("cli.output_bytes"),
        "cli.nonzero_exits": per("cli.nonzero_exits"),
    })
    return m


def replay_noise(keys) -> float:
    """Seconds to redraw the engine's Philox variates for ``keys`` =
    [(seed, blocks, steps, poisson rates)], in the engine's draw order."""
    t0 = time.perf_counter()
    width = forward.BLOCK_SIZE
    for seed, blocks, steps, lams in keys:
        for block in range(blocks):
            rng = np.random.Generator(np.random.Philox(key=(seed << 64) + block))
            for _ in range(steps):
                rng.standard_normal(width)
                for lam in lams:
                    rng.poisson(lam, width)
    return time.perf_counter() - t0
