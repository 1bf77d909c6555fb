"""Monte Carlo estimation of the performance functional
J(u) = E int_0^infty f(t, X, Y, A, u) dt, truncated at a finite horizon.

The time integral along each path uses the trapezoid rule.  Paths that
leave the domain of f (the running reward evaluates to NaN, e.g. a
fractional power of a negative wealth) contribute up to the exit time and
are frozen afterwards.  The discarded tail beyond the horizon is
estimated by the heuristic |f(T)| / discount and reported, never added to
the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteObjective
from .forward import (ControlSpec, StepAccumulator, lane_values,
                      simulate_ensemble)
from .model import ProblemSpec, TimeGrid


@dataclass(frozen=True)
class ObjectiveEstimate:
    mean: float
    stderr: float
    n_paths: int
    truncation_T: float
    tail_bound: float
    exited_fraction: float = 0.0
    per_path: Optional[np.ndarray] = None


class RunningRewardAccumulator(StepAccumulator):
    """Per-path trapezoid integral of f with domain-exit truncation.

    ``finish`` returns (integral, final_f_abs, alive_flag) per path.
    """

    def begin(self, n_lanes, spec, grid):
        return {
            "spec": spec,
            "dt": grid.dt,
            "I": np.zeros(n_lanes),
            "prev_f": None,
            "alive": np.ones(n_lanes, dtype=bool),
            "all_alive": True,  # no lane has left the domain of f yet
            "last_f": np.zeros(n_lanes),
        }

    def _f(self, st, ctx):
        f = st["spec"].coeffs.f(ctx["t"], ctx["x"], ctx["y"], ctx["a"],
                                ctx["u"])
        return lane_values(f, ctx["x"].shape)

    def step(self, st, k, ctx):
        f = self._f(st, ctx)
        ok = np.isfinite(f)
        if st["all_alive"] and ok.all():
            # every lane alive: the where passes below would select f
            if st["prev_f"] is not None:
                st["I"] += 0.5 * st["dt"] * (st["prev_f"] + f)
            st["prev_f"] = st["last_f"] = f
            return
        st["all_alive"] = False
        st["alive"] &= ok
        alive = st["alive"]
        if st["prev_f"] is not None:
            st["I"] += np.where(alive,
                                0.5 * st["dt"] * (st["prev_f"] + f), 0.0)
        st["prev_f"] = np.where(alive, f, 0.0)
        st["last_f"] = np.where(alive, f, st["last_f"])

    def finish(self, st, ctx):
        f = self._f(st, ctx)
        ok = np.isfinite(f)
        alive = st["alive"] & ok
        st["I"] += np.where(alive, 0.5 * st["dt"] * (st["prev_f"] + f), 0.0)
        last = np.where(alive, f, st["last_f"])
        return st["I"].copy(), np.abs(last), alive.astype(float)


def mean_stderr(vals):
    """Sample mean and standard error of per-path values (first axis)."""
    vals = np.asarray(vals, float)
    n = vals.shape[0]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def _summarize(per_path, tail_abs, alive, spec, grid, n_paths) -> ObjectiveEstimate:
    if not np.all(np.isfinite(per_path)):
        raise NonFiniteObjective("per-path objective integral is not finite")
    mean, stderr = mean_stderr(per_path)
    tail = float(np.mean(tail_abs) / spec.discount)
    return ObjectiveEstimate(
        mean=mean, stderr=stderr, n_paths=n_paths,
        truncation_T=grid.horizon, tail_bound=tail,
        exited_fraction=float(1.0 - np.mean(alive)),
        per_path=per_path,
    )


def estimate_J(spec: ProblemSpec, grid: TimeGrid, control: ControlSpec,
               n_paths: int, seed: int, threads: int = 1) -> ObjectiveEstimate:
    """Estimate J(u) over ``n_paths`` counter-seeded Monte Carlo paths."""
    res = simulate_ensemble(spec, grid, control, n_paths, seed,
                            accumulators=(RunningRewardAccumulator(),),
                            threads=threads)
    per_path, tail_abs, alive = res.extras[0]
    return _summarize(per_path, tail_abs, alive, spec, grid, n_paths)


def compare_controls(spec: ProblemSpec, grid: TimeGrid, u_a: ControlSpec,
                     u_b: ControlSpec, n_paths: int, seed: int,
                     threads: int = 1):
    """Paired objective difference J(u_a) - J(u_b) under common random
    numbers.  Returns (mean, stderr) of the per-path differences."""
    ja = estimate_J(spec, grid, u_a, n_paths, seed, threads=threads)
    jb = estimate_J(spec, grid, u_b, n_paths, seed, threads=threads)
    return mean_stderr(ja.per_path - jb.per_path)
