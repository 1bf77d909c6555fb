"""Numerical verification of the sufficient and necessary optimality
conditions for a candidate control.

Sufficient side: concavity of the Hamiltonian in (x, y, a, u),
conditional maximization of H at the candidate, empirical integrability
of the adjoint, and the transversality trend E[p(T)(X(T) - X_hat(T))]
over a ladder of horizons.  One check serves both formulations, given
the adjoint as (p, q, p2) at ensemble points; the second formulation
(p2 given) adds the p2 transversality trend and the flatness of p3.

Necessary side: the first-order condition E[dH/du | E_t] = 0 at probe
times, cross-checked by Gateaux derivatives of J along rectangular bump
perturbations, and the consistency between the finite-difference
derivative of J and the chain-rule integral driven by the variational
process xi.  xi is a step accumulator (``forward.VariationalAccumulator``,
which ``ChainRuleAccumulator`` extends), so a run that carries it saves
and resumes like any other, reading the saved run's kept rows of noise
as its source.  A bump derivative in direction alpha on a window takes the
ensembles of the candidate plus the bump +/- s alpha there; a mirrored
pair (alpha, s) and (-alpha, s) needs the same two, so with the alphas
+/-1 the check simulates 2 |windows| |s| bump ensembles (not 4)
besides the candidate's, and the -alpha estimate is the exact negation of
the +alpha one.  A bump cannot act before its window, so each bumped
ensemble resumes the candidate's engine state saved at the window's
first step (``bump_start_step``) instead of simulating from t = 0; every
estimate is bitwise that of a full run.  A bump window narrower than one
grid step is refused: on the grid it would act on a single point and
measure a trapezoid end weight, not a derivative.  So is a window outside
[0, T]: the truncated objective cannot see the part past T.

Neither check records an ensemble.  The candidate keeps (x, y, a, u) at
the steps its check reads: the probe steps, their lag steps and n for
the necessary check; the ladder, integrability and probe steps, plus the
concavity proxy's sampled (path, step) points, for the sufficient one.
The necessary check's candidate also keeps dB (and the jump counts) from
the first bump window's step on, which its resumed bump ensembles read;
its captures are freed once the residuals are taken (its saved states
hold none of them), and each window's bump results once its estimates
are.  The sufficiency ladder's comparison ensembles keep their
states at the ladder steps.  So a check holds O(N x captured steps
+ N x (n - first window step)) floats, not the O(N x n) of a record.

The information structure E_t is either ``full`` (E_t = F_t, conditional
estimates reduce to plain path averages) or ``("lagged", D)`` (condition
on the state observed at t - D via least-squares regression); a JSON
config gives the pair as the list ``["lagged", D]``, and any other value
is refused with ConfigError.

Each check takes the candidate's adjoint as an argument just before
``mc_cfg``: ``adjoint``, a callable p(t, x, y, a), for the first
sufficiency check, the necessary check and ``variational_consistency``
(where None leaves out the terminal correction), and ``adj2``, a
``SecondAdjointResult``, for the second sufficiency check.  ``mc_cfg``
holds the JSON settings only; each check reads and checks all of them
before its first simulation, and a value out of range is a ConfigError
naming ``mc.<key>``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .absde import _least_squares, monomial_basis
from .adjoint import _grid_function, p3_flatness
from .errors import BadWindow
from .forward import (ControlSpec, StepAccumulator, VariationalAccumulator,
                      bump_control, bump_start_step, simulate_ensemble)
from .hamiltonian import HamArgs, eval_H, grad_H, maximize_scalar
from .model import ProblemSpec, TimeGrid, _mc_settings, setting
from .objective import RunningRewardAccumulator, mean_stderr

# The checks' fixed settings: Hessian samples of the concavity proxy, the
# absolute slack each pass test allows beyond its standard errors, and the
# bump directions of the necessary check.
_HESSIAN_SAMPLES = 200
_CONCAVITY_TOL = 1e-8
_GAP_ABS_TOL = 1e-9
_P3_TOL = 1e-6
_RESID_ABS_TOL = 1e-9
_BUMP_ABS_TOL = 1e-9
_BUMP_ALPHAS = (1.0, -1.0)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class SufficiencyReport:
    transversality: list
    concavity: dict
    integrability: dict
    max_gap: list
    p3_check: Optional[dict]
    verdict: str

    def as_dict(self):
        return asdict(self)


@dataclass
class NecessityReport:
    probe_times: list
    residuals: list
    residual_stderr: list
    bump_estimates: list
    interior_fraction: float
    boundary_control: bool
    verdict: str

    def as_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Ensemble helpers
# ---------------------------------------------------------------------------

def _probe_indices(grid: TimeGrid, mc_cfg):
    count = setting(mc_cfg, "mc", "probe_count")
    # keep probes away from the truncation horizon where p(T) = 0 is forced
    frac = setting(mc_cfg, "mc", "probe_span")
    ks = np.unique(np.linspace(0, int(frac * grid.n), count).astype(int))
    return ks


def _superpose(base: ControlSpec, beta: ControlSpec,
               s: float) -> ControlSpec:
    """Control u + s * beta (clipped at evaluation like any control)."""
    def rule(k, t, x, y, a):
        return base.raw(k, t, x, y, a) + s * beta.raw(k, t, x, y, a)

    return ControlSpec(rule,
                       reads_average=base.reads_average or beta.reads_average)


def _adjoint_values(adjoint, t, x, y, a):
    """The adjoint callable p(t, x, y, a) at ensemble points, as (p, q)
    arrays with q zero."""
    p = np.broadcast_to(np.asarray(adjoint(t, x, y, a), float), np.shape(x))
    return p, np.zeros_like(p)


class StateAtStepsAccumulator(StepAccumulator):
    """Per-path values at chosen grid steps, without recording the run:
    ``finish`` returns one (N, len(steps)) array per key of ``keys`` (the
    state x, y, a by default; "xyau" adds the control), whose column j
    holds the value at ``steps[j]`` and is contiguous.  The terminal
    state is ``steps=(n,)``.

    A run writes its values into one array it allocates at its first
    capture.  A saved state holds none of them, so saving does not keep
    a run's captures alive: a run resumed from it captures the steps from
    its resume step on and leaves the columns of earlier steps NaN.  It
    reads the moving average only when ``keys`` holds "a"."""

    def __init__(self, steps, keys="xya"):
        self.steps = tuple(int(k) for k in steps)
        self.keys = tuple(keys)
        self._columns = {}  # step -> its columns
        for j, k in enumerate(self.steps):
            self._columns.setdefault(k, []).append(j)

    def reads_average(self, spec):
        return "a" in self.keys

    def begin(self, n_lanes, spec, grid):
        return {"out": None}

    def _out(self, st, n_lanes):
        if st["out"] is None:
            st["out"] = np.full((len(self.keys), len(self.steps), n_lanes),
                                np.nan)
        return st["out"]

    def step(self, st, k, ctx):
        cols = self._columns.get(k)
        if cols is None:
            return
        out = self._out(st, len(ctx["x"]))
        for i, key in enumerate(self.keys):
            out[i, cols] = ctx[key]

    def finish(self, st, ctx):
        self.step(st, ctx["k"], ctx)
        return tuple(v.T for v in self._out(st, len(ctx["x"])))

    def copy_state(self, st):
        return {"out": None}

    def by_step(self, extras) -> dict:
        """``finish``'s arrays (merged over paths) as step -> tuple of
        columns, one per key."""
        return {k: tuple(v[:, j] for v in extras)
                for j, k in enumerate(self.steps)}


class StatePointsAccumulator(StepAccumulator):
    """(x, y, a, u) of single paths at single steps: point j is path
    ``paths[j]`` at step ``steps[j]``.  ``finish`` returns, for the points
    among a group's paths, their indices j and a (len, 4) array of their
    values, so the merged output lists every point once; ``values``
    orders it by j."""

    def __init__(self, paths, steps):
        self._at = {}  # step -> [(point, path)]
        for j, (i, k) in enumerate(zip(paths, steps)):
            self._at.setdefault(int(k), []).append((j, int(i)))
        self.n_points = len(paths)

    def begin(self, n_lanes, spec, grid):
        return {"n": n_lanes, "points": [], "values": []}

    def step(self, st, k, ctx):
        for j, i in self._at.get(k, ()):
            lane = i - ctx["path0"]
            if 0 <= lane < st["n"]:
                st["points"].append(j)
                st["values"].append([ctx[key][lane] for key in "xyau"])

    def finish(self, st, ctx):
        self.step(st, ctx["k"], ctx)
        return (np.array(st["points"], dtype=int),
                np.array(st["values"], float).reshape(-1, 4))

    def copy_state(self, st):
        return {"n": st["n"], "points": list(st["points"]),
                "values": list(st["values"])}

    def values(self, extras) -> np.ndarray:
        """The merged output as a (len(paths), 4) array, row j point j."""
        points, vals = extras
        out = np.full((self.n_points, 4), np.nan)
        out[points] = vals
        return out


# the name perfbench's tracer times this accumulator under
TerminalStateAccumulator = StateAtStepsAccumulator


def _gateaux_accumulators(grid):
    return RunningRewardAccumulator(), StateAtStepsAccumulator((grid.n,), "x")


def _gateaux_terms(spec, grid, shifted, n_paths, seed, threads, resume=None):
    """Per-path (reward integral, terminal state) under the perturbed
    control ``shifted``, optionally resumed from a saved engine state.

    The terminal state is zeroed on paths that left the domain of f
    before the horizon: their continuation value is zero, so they must
    not contribute to the adjoint-weighted tail correction."""
    res = simulate_ensemble(spec, grid, shifted, n_paths, seed,
                            accumulators=_gateaux_accumulators(grid),
                            threads=threads, resume=resume)
    reward, _, alive = res.extras[0]
    x_T = res.extras[1][0][:, 0]
    return reward, x_T * alive


def _lag_steps(e_t, grid: TimeGrid) -> int:
    """Grid steps of the information lag of a checked ``mc.e_t``: 0 for
    ``"full"``, D / dt for ``("lagged", D)``."""
    return 0 if e_t == "full" else int(round(e_t[1] / grid.dt))


def _conditional_residual(values, lag_state=None, degree: int = 2):
    """Summary of E[values | E_t] with the standard error of the plain
    mean: the plain mean under full information (no ``lag_state``);
    under lagged information, the signed value of largest magnitude among
    the per-path regression projections on the lagged state."""
    mean, stderr = mean_stderr(values)
    if lag_state is None:
        return mean, stderr
    proj = _least_squares(monomial_basis(*lag_state, degree), values)
    signed = proj[np.argmax(np.abs(proj))]
    return float(signed), stderr


# ---------------------------------------------------------------------------
# Hamiltonian evaluation over ensembles
# ---------------------------------------------------------------------------

def _gap_at_probe(spec, t, x, y, a, u_hat, adj):
    """Conditional-maximum gap max_v mean H(v) - mean H(u_hat) plus the
    paired standard error at the maximizer; ``adj`` = (p, q, p2)."""
    p, q, p2 = adj

    def H(u):
        args = HamArgs(t=t, x=x, y=y, a=a, u=u, p=p, q=q, p2=p2)
        with np.errstate(all="ignore"):
            return np.asarray(eval_H(spec, args, check=False), float)

    def mean_H(v):
        vals = H(np.full_like(x, np.clip(v, spec.control_lo, spec.control_hi)))
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            return -np.inf
        return float(np.mean(vals))

    v_star, _ = maximize_scalar(mean_H, spec.control_lo, spec.control_hi)
    h_star = H(np.full_like(x, v_star))
    h_hat = H(u_hat)
    ok = np.isfinite(h_star) & np.isfinite(h_hat)
    diff = h_star[ok] - h_hat[ok]
    gap, stderr = mean_stderr(diff)
    return gap, stderr, float(v_star)


def _hessian_proxy(spec, grid, steps, points, adjoint_eval):
    """Max eigenvalue of the (x, y, a, u)-Hessian of H over sampled
    ensemble points, by central differences of the analytic gradient;
    row j of ``points`` holds (x, y, a, u) at step ``steps[j]``.  Points
    with a non-finite coordinate and Hessians with a non-finite entry are
    skipped (-inf when none is left).

    All points at once: copy 2j (2j+1) of the points moves variable j up
    (down) by h, each partial of H is one grad_H call on those 8 copies,
    and the symmetrised Hessians go to one batched eigvalsh."""
    h = 1e-5
    points = np.asarray(points, float)
    keep = np.all(np.isfinite(points), axis=1)
    base = points[keep].T  # (4, P)
    t = np.asarray(steps)[keep] * grid.dt
    if not t.size:
        return -np.inf
    adj = zip(*(adjoint_eval(tk, x, y, a) for tk, x, y, a in zip(t, *base[:3])))
    p, q, p2 = (None if vals[0] is None else np.array(vals, float)
                for vals in adj)
    moved = np.repeat(base[:, None, :], 8, axis=1)  # (4, 8, P)
    for j in range(4):
        moved[j, 2 * j] += h
        moved[j, 2 * j + 1] -= h
    args = HamArgs(t=t, x=moved[0], y=moved[1], a=moved[2], u=moved[3],
                   p=p, q=q, p2=p2)
    with np.errstate(all="ignore"):
        grads = np.stack([np.broadcast_to(grad_H(spec, args, v, check=False),
                                          moved.shape[1:])
                          for v in ("x", "y", "a", "u")])
    # H[., i, j] = (dH/di at j up - dH/di at j down) / 2h, point axis first
    H = np.moveaxis((grads[:, 0::2] - grads[:, 1::2]) / (2 * h), -1, 0)
    H = 0.5 * (H + np.swapaxes(H, -1, -2))
    H = H[np.all(np.isfinite(H), axis=(1, 2))]
    return float(np.max(np.linalg.eigvalsh(H))) if len(H) else -np.inf


# ---------------------------------------------------------------------------
# Sufficient conditions
# ---------------------------------------------------------------------------

def _check_sufficient(spec, grid, candidate, comparison_controls, mc_cfg,
                      adjoint_eval, p3_check=None) -> SufficiencyReport:
    """Transversality ladder, concavity proxy, integrability proxy and
    conditional-maximum gaps for the adjoint
    ``adjoint_eval(t, x, y, a) -> (p, q, p2)``; p2 is None for the
    first formulation and adds the p2/Y transversality columns.  A
    ``p3_check`` that is not flat fails the verdict.

    The candidate is not recorded: it keeps (x, y, a, u) at the steps the
    parts below read (ladder, integrability stride, probes) and at the
    concavity proxy's sampled (path, step) points only."""
    ladder = setting(mc_cfg, "mc", "horizon_fractions")
    steps = [min(grid.n, int(round(frac * grid.n))) for frac in ladder]
    stride = max(1, grid.n // 50)
    probes = _probe_indices(grid, mc_cfg)
    n_paths, seed, threads = _mc_settings(mc_cfg)
    rng = np.random.default_rng(seed + 1)
    sample_paths = rng.integers(0, n_paths, _HESSIAN_SAMPLES)
    sample_steps = rng.integers(0, grid.n + 1, _HESSIAN_SAMPLES)
    capture = StateAtStepsAccumulator(
        sorted({*steps, *range(0, grid.n + 1, stride), *probes}), "xyau")
    points = StatePointsAccumulator(sample_paths, sample_steps)
    res = simulate_ensemble(spec, grid, candidate, n_paths, seed,
                            accumulators=(capture, points), threads=threads)
    S = capture.by_step(res.extras[0])

    # (i) transversality ladder over nested horizons; a comparison run
    # keeps its states at the ladder steps only
    transversality = []
    for cmp_idx, cmp_control in enumerate(comparison_controls):
        cmp_X, cmp_Y = simulate_ensemble(
            spec, grid, cmp_control, n_paths, seed, threads=threads,
            accumulators=(StateAtStepsAccumulator(steps, "xy"),)).extras[0]
        for j, k in enumerate(steps):
            t = k * grid.dt
            x, y, a, _ = S[k]
            p, _, p2 = adjoint_eval(t, x, y, a)
            est, se = mean_stderr(p * (cmp_X[:, j] - x))
            rec = {"comparison": cmp_idx, "T": t, "estimate": est, "stderr": se}
            if p2 is not None:
                rec["estimate_p2"], rec["stderr_p2"] = mean_stderr(
                    p2 * (cmp_Y[:, j] - y))
            transversality.append(rec)

    # (ii) concavity proxy over sampled points
    worst = _hessian_proxy(spec, grid, sample_steps,
                           points.values(res.extras[1]), adjoint_eval)
    concavity = {"max_eigenvalue": worst, "tol": _CONCAVITY_TOL,
                 "passed": worst <= _CONCAVITY_TOL}

    # (iii) integrability proxy: E int p^2 (sigma^2 + int theta^2 nu) + q^2 dt
    total = 0.0
    for k in range(0, grid.n + 1, stride):
        t = k * grid.dt
        x, y, a, u = S[k]
        p, q, _ = adjoint_eval(t, x, y, a)
        with np.errstate(all="ignore"):
            sig = np.asarray(spec.coeffs.sigma(t, x, y, a, u), float)
        jump_sq = 0.0
        if spec.has_jumps:
            jump_sq = spec.jump.nu_integral(
                lambda z: np.asarray(spec.coeffs.theta(t, x, y, a, u, z),
                                     float) ** 2)
        term = np.nanmean(p ** 2 * (sig ** 2 + jump_sq) + q ** 2)
        total += term * grid.dt * stride
    integrability = {"estimate": float(total),
                     "finite": bool(np.isfinite(total))}

    # (iv) conditional maximization at probe times
    max_gap = []
    gaps_ok = True
    for k in probes:
        t = k * grid.dt
        x, y, a, u = S[k]
        gap, se, v_star = _gap_at_probe(spec, t, x, y, a, u,
                                        adjoint_eval(t, x, y, a))
        max_gap.append({"t": float(t), "gap": gap, "stderr": se,
                        "maximizer": v_star})
        if gap > 2 * se + _GAP_ABS_TOL:
            gaps_ok = False

    trans_ok = all(rec["estimate"] >= -2 * rec["stderr"] - 1e-12
                   for rec in transversality)
    ok = (gaps_ok and concavity["passed"] and integrability["finite"]
          and trans_ok and (p3_check is None or p3_check["flat"]))
    return SufficiencyReport(transversality, concavity, integrability,
                             max_gap, p3_check, "pass" if ok else "fail")


def check_sufficient_first(spec: ProblemSpec, grid: TimeGrid,
                           candidate: ControlSpec, comparison_controls,
                           adjoint, mc_cfg: dict) -> SufficiencyReport:
    """Concavity, conditional maximization, integrability proxy, and the
    transversality ladder for the scalar-adjoint formulation, with
    ``adjoint`` the candidate's adjoint as a callable p(t, x, y, a)."""

    def adjoint_eval(t, x, y, a):
        return (*_adjoint_values(adjoint, t, x, y, a), None)

    return _check_sufficient(spec, grid, candidate, comparison_controls,
                             mc_cfg, adjoint_eval)


def check_sufficient_second(spec: ProblemSpec, grid: TimeGrid,
                            candidate: ControlSpec, comparison_controls,
                            adj2, mc_cfg: dict) -> SufficiencyReport:
    """Three-adjoint variant: adds the p2/Y transversality ladder and the
    p3-flatness check; integrability is measured on (p1, q1).  ``adj2``
    is the SecondAdjointResult solved under the candidate (deterministic
    grid functions)."""

    parts = [_grid_function(grid, v) for v in (adj2.p1, adj2.q1, adj2.p2)]

    def adjoint_eval(t, x, y, a):
        return tuple(part(t, x, y, a) for part in parts)

    flat, dev = p3_flatness(adj2.p3, _P3_TOL)
    return _check_sufficient(spec, grid, candidate, comparison_controls,
                             mc_cfg, adjoint_eval,
                             {"flat": flat, "max_deviation": dev})


# ---------------------------------------------------------------------------
# Necessary condition
# ---------------------------------------------------------------------------

def _first_order_residuals(spec, grid, ks, S, lag_steps, adjoint, degree):
    """Conditional estimates of dH/du at the probe steps ``ks`` from the
    captured states ``S`` (step -> (x, y, a, u)): (residuals, standard
    errors, boundary_control, interior_fraction).  The control is on the
    boundary when more than half of the in-domain paths sit at a bound at
    more than half of the probes."""
    resid = np.empty(len(ks))
    rse = np.empty(len(ks))
    tol_b = 1e-9 * max(1.0, abs(spec.control_hi) + abs(spec.control_lo))
    boundary_hits = 0
    interior_fracs = []
    for i, k in enumerate(ks):
        t = k * grid.dt
        x, y, a, u = S[k]
        p, q = _adjoint_values(adjoint, t, x, y, a)
        args = HamArgs(t=t, x=x, y=y, a=a, u=u, p=p, q=q)
        with np.errstate(all="ignore"):
            g = np.asarray(grad_H(spec, args, "u", check=False), float)
        ok = np.isfinite(g)
        lag = None
        if lag_steps and k - lag_steps >= 0:
            lag = tuple(v[ok] for v in S[k - lag_steps][:3])
        resid[i], rse[i] = _conditional_residual(g[ok], lag, degree)
        # boundary statistics over in-domain paths only
        u_ok = u[ok]
        on_bound = ((u_ok <= spec.control_lo + tol_b)
                    | (u_ok >= spec.control_hi - tol_b))
        if u_ok.size and np.mean(on_bound) > 0.5:
            boundary_hits += 1
        interior_fracs.append(1.0 - (np.mean(on_bound) if u_ok.size else 0.0))
    return (resid, rse, boundary_hits > len(ks) / 2,
            float(np.mean(interior_fracs)))


def necessary_residual(spec: ProblemSpec, grid: TimeGrid,
                       candidate: ControlSpec, adjoint,
                       mc_cfg: dict) -> NecessityReport:
    """First-order condition at the candidate, whose adjoint is the
    callable ``adjoint`` p(t, x, y, a): conditional estimates of dH/du at
    probe times plus symmetric-difference Gateaux derivatives of J along
    bump perturbations, all under common random numbers."""
    lag_steps = _lag_steps(setting(mc_cfg, "mc", "e_t"), grid)
    T = grid.horizon
    windows = setting(mc_cfg, "mc", "bump_windows")
    if windows is None:
        windows = [(0.1 * T, 0.1 * T), (0.4 * T, 0.1 * T), (0.7 * T, 0.1 * T)]
    for ws, wh in windows:
        if wh < grid.dt - 1e-12:
            raise BadWindow(f"bump window [{ws}, {ws + wh}] is narrower than "
                            f"one grid step (dt={grid.dt})")
        # raises BadWindow for a window outside [0, T]
        bump_control(candidate, 0.0, ws, wh, horizon=grid.horizon)
    s_values = setting(mc_cfg, "mc", "bump_s")
    degree = setting(mc_cfg, "mc", "basis_degree")
    n_paths, seed, threads = _mc_settings(mc_cfg)

    # a bump acts from its window's first step on, so each bumped ensemble
    # resumes the candidate's engine state saved there.  The candidate is
    # not recorded: it runs the classes of _gateaux_accumulators, which a
    # resume must match, and keeps (x, y, a, u) at the probe steps, their
    # lag steps and n, which are freed before the bumps run
    ks = _probe_indices(grid, mc_cfg)
    nn = grid.n
    lag_ks = [k - lag_steps for k in ks if lag_steps and k - lag_steps >= 0]
    capture = StateAtStepsAccumulator(sorted({*ks, *lag_ks, nn}), "xyau")
    first_step = {ws: bump_start_step(grid, float(ws)) for ws, _ in windows}
    cand = simulate_ensemble(spec, grid, candidate, n_paths, seed,
                             accumulators=(RunningRewardAccumulator(), capture),
                             threads=threads, save_at=first_step.values())
    saved = cand.states
    S = capture.by_step(cand.extras[1])
    del cand
    resid, rse, boundary_control, interior_fraction = _first_order_residuals(
        spec, grid, ks, S, lag_steps, adjoint, degree)

    # bump (Gateaux) derivatives by symmetric differences under CRN
    # The truncated objective misses the tail E int_T^inf f dt whose first
    # variation is E[p(T) xi(T)]; adding p(T) (X_+(T) - X_-(T)) / 2s per
    # path with the candidate's adjoint removes that bias, so the estimate
    # targets the infinite-horizon derivative.
    p_T = _adjoint_values(adjoint, grid.horizon, *S[nn][:3])[0]
    del S

    bump_estimates = []
    for (ws, wh) in windows:
        # (alpha, s) and (-alpha, s) need the same two bumped ensembles, so
        # each shift is simulated once; the window's ensembles are dropped
        # once its estimates are taken
        terms = {}
        for alpha in _BUMP_ALPHAS:
            for s in s_values:
                for shift in (s * alpha, -s * alpha):
                    if shift not in terms:
                        terms[shift] = _gateaux_terms(
                            spec, grid, bump_control(candidate, shift, ws, wh,
                                                     horizon=grid.horizon),
                            n_paths, seed, threads, saved[first_step[ws]])
                rew_p, xT_p = terms[s * alpha]
                rew_m, xT_m = terms[-s * alpha]
                diff = (rew_p - rew_m) / (2 * s)
                diff = diff + p_T * (xT_p - xT_m) / (2 * s)
                est, se = mean_stderr(diff)
                bump_estimates.append(
                    {"window": (ws, wh), "alpha": alpha, "s": s,
                     "estimate": est, "stderr": se})

    resid_ok = np.all(np.abs(resid) <= 3 * rse + _RESID_ABS_TOL)
    bumps_ok = all(abs(b["estimate"]) <= 3 * b["stderr"] + _BUMP_ABS_TOL
                   for b in bump_estimates)
    if boundary_control:
        verdict = "boundary"
    else:
        verdict = "pass" if (resid_ok and bumps_ok) else "fail"
    return NecessityReport(
        probe_times=[float(k * grid.dt) for k in ks],
        residuals=resid.tolist(), residual_stderr=rse.tolist(),
        bump_estimates=bump_estimates,
        interior_fraction=interior_fraction,
        boundary_control=boundary_control, verdict=verdict)


# ---------------------------------------------------------------------------
# Variational consistency
# ---------------------------------------------------------------------------

class ChainRuleAccumulator(VariationalAccumulator):
    """Per-path trapezoid integral of
    f_x xi + f_y xi(t - delta) + f_a Lam + f_u beta
    along the jointly simulated (X, xi) dynamics; ``finish`` returns it
    and xi(T).  The four f partials are resolved once per run."""

    def begin(self, n_lanes, spec, grid):
        st = self._variation(n_lanes, spec, grid)
        st.update(f=tuple(spec.coeffs.partial("f", v) for v in "xyau"),
                  I=np.zeros(n_lanes), prev=None)
        return st

    @staticmethod
    def _trapezoid(st, ctx, beta):
        """Add the integral's trapezoid up to t = ctx["t"]."""
        fx, fy, fa, fu = st["f"]
        t, x, y, a, u = ctx["t"], ctx["x"], ctx["y"], ctx["a"], ctx["u"]
        g = np.asarray(
            fx(t, x, y, a, u) * st["xi"] + fy(t, x, y, a, u) * st["lag"]
            + fa(t, x, y, a, u) * st["Lam"] + fu(t, x, y, a, u) * beta, float)
        if st["prev"] is not None:
            st["I"] += 0.5 * st["dt"] * (st["prev"] + g)
        st["prev"] = g

    def step(self, st, k, ctx):
        beta = self._beta(k, ctx)
        self._trapezoid(st, ctx, beta)
        self._advance(st, k, ctx, beta)

    def finish(self, st, ctx):
        self._trapezoid(st, ctx, self._beta(ctx["k"], ctx))
        return st["I"].copy(), st["xi"].copy()


def variational_consistency(spec: ProblemSpec, grid: TimeGrid,
                            candidate: ControlSpec, beta: ControlSpec,
                            adjoint, mc_cfg: dict) -> dict:
    """Compare the finite-difference Gateaux derivative of J at the
    candidate in direction beta with the chain-rule integral driven by
    the variational process, under common random numbers.  Both add the
    terminal correction p(T) xi(T) with ``adjoint`` p(t, x, y, a); None
    leaves it out."""
    n_paths, seed, threads = _mc_settings(mc_cfg)
    s = setting(mc_cfg, "mc", "s")

    res = simulate_ensemble(spec, grid, candidate,
                            n_paths, seed,
                            accumulators=(ChainRuleAccumulator(beta),
                                          StateAtStepsAccumulator((grid.n,))),
                            threads=threads)
    xi_vals, xi_T = res.extras[0]
    x_T, y_T, a_T = (v[:, 0] for v in res.extras[1])

    rew_p, xT_p = _gateaux_terms(
        spec, grid, _superpose(candidate, beta, s), n_paths, seed,
        threads)
    rew_m, xT_m = _gateaux_terms(
        spec, grid, _superpose(candidate, beta, -s), n_paths, seed,
        threads)
    fd_vals = (rew_p - rew_m) / (2 * s)

    if adjoint is not None:
        # same terminal correction for both estimators: the truncated
        # functional plus E[p(T) X(T)] has the infinite-horizon variation
        p_T = _adjoint_values(adjoint, grid.horizon, x_T, y_T, a_T)[0]
        xi_vals = xi_vals + p_T * xi_T
        fd_vals = fd_vals + p_T * (xT_p - xT_m) / (2 * s)

    xi_mean, xi_se = mean_stderr(xi_vals)
    fd_mean, fd_se = mean_stderr(fd_vals)

    gap_vals = fd_vals - xi_vals
    gap_mean, gap_se = mean_stderr(gap_vals)
    return {
        "fd_derivative": fd_mean, "fd_stderr": fd_se,
        "xi_based_derivative": xi_mean, "xi_stderr": xi_se,
        "gap": gap_mean, "gap_stderr": gap_se, "s": s,
    }
