"""Picard-iteration solver for time-advanced backward SDEs.

The unknown triple (p, q, r) satisfies, on [0, T] with p(T) = 0,

    dp(t) = E[ F(t, p(t), p(t+delta), p_t, q(t), q(t+delta), q_t,
                  r(t), r(t+delta), r_t) | F_t ] dt + q dB + r dN~,

where p_t denotes the forward segment {p(s), s in [t, t+delta]} (and
likewise for q, r).  Note the driver sits on the PLUS side of dp.  The
infinite horizon is truncated at T with p = q = r = 0 beyond T, every
iterate.

The solver follows the two-step successive-substitution scheme: an inner
loop fixes the (q, r) arguments (initialized at zero) and an outer loop
fixes the p arguments (initialized at zero).  Contraction is monitored in
the weighted norm int_0^T e^{lambda t} |.|^2 dt; the weight is
auto-selected from the driver's Lipschitz constant via the rule
lambda = C / eps with eps = 1/(12 (2 + e^{-lambda delta})), solved
self-consistently, times a 1.1 margin.

Two evaluation modes:
  deterministic - all processes are deterministic functions of time;
      conditional expectation is the identity, q = r = 0, and the
      backward sweep is trapezoid quadrature of the driver.
  regression - processes live on a Monte Carlo ensemble; E[.|F_t] is
      least-squares polynomial regression on monomials of (X, Y, A)
      (Longstaff-Schwartz), q and r are extracted by regressing the
      martingale increments p_{k+1} dB_k / dt and
      p_{k+1} (dN_k - intensity dt) / (intensity dt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadWeight, NoConvergence
from .model import TimeGrid


@dataclass(frozen=True)
class AdvancedDriver:
    """Driver F plus its declared Lipschitz constant.

    ``fn`` has the ten-argument signature
    fn(t, p_now, p_adv, p_seg, q_now, q_adv, q_seg, r_now, r_adv, r_seg);
    the *_adv arguments are values at t + delta and the *_seg arguments
    are forward grid slices over [t, t + delta] (length m+1).  When
    ``vectorized`` is true the solver calls fn once per sweep with arrays
    over the whole grid (first axis = time) instead of once per node.
    """

    fn: Callable
    lipschitz: float
    n_marks: int = 0
    vectorized: bool = False


@dataclass
class AdjointTriple:
    """Grid-sampled solution; arrays are padded with m extra zero nodes
    past the horizon so advanced reads never index out of range.

    In deterministic mode p and q have shape (n+1+m,) and r has shape
    (n+1+m, n_marks).  In regression mode a leading path axis is added.
    """

    grid: TimeGrid
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    ensemble: bool = False

    def p_on_grid(self) -> np.ndarray:
        """p at the n+1 grid nodes (ensemble-averaged in regression mode)."""
        p = self.p.mean(axis=0) if self.ensemble else self.p
        return p[: self.grid.n + 1]

    def q_on_grid(self) -> np.ndarray:
        q = self.q.mean(axis=0) if self.ensemble else self.q
        return q[: self.grid.n + 1]

    def r_on_grid(self) -> np.ndarray:
        r = self.r.mean(axis=0) if self.ensemble else self.r
        return r[: self.grid.n + 1]

    def to_csv(self, path: str):
        r = self.r_on_grid()
        cols = ["t", "p", "q"] + [f"r_{j}" for j in range(r.shape[1])]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            t = self.grid.times
            p, q = self.p_on_grid(), self.q_on_grid()
            for k in range(self.grid.n + 1):
                row = [t[k], p[k], q[k], *r[k]]
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


@dataclass
class PicardReport:
    distances: list = field(default_factory=list)  # successive weighted dists
    p_distances: list = field(default_factory=list)
    qr_distances: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    weight_lambda: float = 0.0
    mode: str = "deterministic"

    def as_dict(self) -> dict:
        return {
            "distances": list(self.distances),
            "p_distances": list(self.p_distances),
            "qr_distances": list(self.qr_distances),
            "ratios": list(self.ratios),
            "iterations": self.iterations,
            "converged": self.converged,
            "weight_lambda": self.weight_lambda,
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# Weight selection
# ---------------------------------------------------------------------------

def epsilon_rule(weight_lambda: float, delta: float) -> float:
    return 1.0 / (12.0 * (2.0 + np.exp(-weight_lambda * delta)))


def auto_weight(lipschitz: float, delta: float, margin: float = 1.1) -> float:
    """Self-consistent solution of lambda = C / eps(lambda), scaled by the
    safety margin.  eps(lambda) = 1/(12 (2 + e^{-lambda delta}))."""
    C = max(float(lipschitz), 1e-12)
    lam = 24.0 * C
    for _ in range(200):
        lam_next = C * 12.0 * (2.0 + np.exp(-lam * delta))
        if abs(lam_next - lam) < 1e-14 * max(1.0, lam):
            lam = lam_next
            break
        lam = lam_next
    return margin * lam


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _trapz_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def weighted_distance(grid: TimeGrid, lam: float, dp, dq=None, dr=None,
                      ensemble: bool = False):
    """(total, p-part, qr-part) of the normalized weighted square norm
    int_0^T e^{lambda t} |.|^2 dt / int_0^T e^{lambda t} dt, trapezoid in
    time; ensemble inputs are averaged over the path axis.  The
    normalization leaves contraction ratios untouched while keeping
    magnitudes comparable to sup-norms even for large lambda * T."""
    n, dt = grid.n, grid.dt
    trapz = _trapz_weights(n, dt)
    with np.errstate(over="ignore"):
        w = trapz * np.exp(lam * grid.times)
        total = np.sum(w)
    if not np.isfinite(total):
        # e^{lambda T} overflows: the normalization cancels a common
        # factor, so take e^{-lambda T} into the exponent
        w = trapz * np.exp(lam * grid.times - lam * grid.horizon)
        total = np.sum(w)
    w = w / total
    dp = np.asarray(dp, float)
    if ensemble:
        p2 = np.mean(dp[:, : n + 1] ** 2, axis=0)
    else:
        p2 = dp[: n + 1] ** 2
    d_p = float(w @ p2)
    d_qr = 0.0
    if dq is not None:
        dq = np.asarray(dq, float)
        q2 = np.mean(dq[:, : n + 1] ** 2, axis=0) if ensemble else dq[: n + 1] ** 2
        d_qr += float(w @ q2)
    if dr is not None:
        dr = np.asarray(dr, float)
        if ensemble:
            r2 = np.mean(np.sum(dr[:, : n + 1, :] ** 2, axis=-1), axis=0)
        else:
            r2 = np.sum(dr[: n + 1, :] ** 2, axis=-1)
        d_qr += float(w @ r2)
    return d_p + d_qr, d_p, d_qr


# ---------------------------------------------------------------------------
# Deterministic backward sweep
# ---------------------------------------------------------------------------

def _driver_values_det(driver: AdvancedDriver, grid: TimeGrid,
                       p, q, r) -> np.ndarray:
    """F evaluated at every grid node with all arguments read from the
    given (previous) iterate."""
    n, m = grid.n, grid.m
    times = grid.times
    if driver.vectorized:
        p_seg = sliding_window_view(p, m + 1)[: n + 1]
        q_seg = sliding_window_view(q, m + 1)[: n + 1]
        r_seg = sliding_window_view(r, (m + 1,), axis=0)[: n + 1]
        vals = driver.fn(times, p[: n + 1], p[m: n + 1 + m], p_seg,
                         q[: n + 1], q[m: n + 1 + m], q_seg,
                         r[: n + 1], r[m: n + 1 + m], r_seg)
        return np.asarray(vals, float)
    vals = np.empty(n + 1)
    for k in range(n + 1):
        vals[k] = driver.fn(times[k], p[k], p[k + m], p[k: k + m + 1],
                            q[k], q[k + m], q[k: k + m + 1],
                            r[k], r[k + m], r[k: k + m + 1])
    return vals


def _det_sweep(driver: AdvancedDriver, grid: TimeGrid, p_prev, q_prev, r_prev):
    """One Picard update in deterministic mode: trapezoid quadrature of
    dp = F dt backward from p(T) = 0 (so p(t) = -int_t^T F ds)."""
    n, m, dt = grid.n, grid.m, grid.dt
    F = _driver_values_det(driver, grid, p_prev, q_prev, r_prev)
    steps = 0.5 * dt * (F[:-1] + F[1:])
    p_new = np.zeros(n + 1 + m)
    p_new[: n] = -np.cumsum(steps[::-1])[::-1]
    q_new = np.zeros(n + 1 + m)
    r_new = np.zeros((n + 1 + m, max(driver.n_marks, 1)))
    return p_new, q_new, r_new


# ---------------------------------------------------------------------------
# Regression machinery
# ---------------------------------------------------------------------------

class McContext:
    """Forward-path ensemble supplying conditioning variables for the
    least-squares conditional expectations."""

    def __init__(self, X, Y, A, dB, counts=None, intensity=0.0,
                 mark_probs=None, basis_degree: int = 2):
        self.X = np.asarray(X, float)
        self.Y = np.asarray(Y, float)
        self.A = np.asarray(A, float)
        self.dB = np.asarray(dB, float)
        self.counts = None if counts is None else np.asarray(counts, float)
        self.intensity = float(intensity)
        self.mark_probs = (None if mark_probs is None
                           else np.asarray(mark_probs, float))
        self.basis_degree = int(basis_degree)
        self._design_cache = {}

    @classmethod
    def from_records(cls, records, intensity=0.0, mark_probs=None,
                     basis_degree: int = 2):
        counts = (None if records[0].counts is None
                  else np.stack([rec.counts for rec in records]))
        return cls(X=np.stack([rec.X for rec in records]),
                   Y=np.stack([rec.Y for rec in records]),
                   A=np.stack([rec.A for rec in records]),
                   dB=np.stack([rec.dB for rec in records]),
                   counts=counts, intensity=intensity,
                   mark_probs=mark_probs, basis_degree=basis_degree)

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    def design(self, k: int) -> np.ndarray:
        """Monomials of (X_k, Y_k, A_k) up to total basis_degree."""
        if k in self._design_cache:
            return self._design_cache[k]
        x, y, a = self.X[:, k], self.Y[:, k], self.A[:, k]
        cols = [np.ones_like(x)]
        for d in range(1, self.basis_degree + 1):
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    cols.append(x ** i * y ** j * a ** (d - i - j))
        M = np.column_stack(cols)
        if len(self._design_cache) < 4096:
            self._design_cache[k] = M
        return M

    def project(self, k: int, values: np.ndarray) -> np.ndarray:
        """Least-squares E[values | X_k, Y_k, A_k], evaluated per path."""
        M = self.design(k)
        coef, *_ = np.linalg.lstsq(M, values, rcond=None)
        return M @ coef


def _reg_sweep(driver: AdvancedDriver, grid: TimeGrid, ctx: McContext,
               p_prev, q_prev, r_prev, inner_qr=None):
    """One backward regression sweep.  The p-arguments of the driver come
    from p_prev; the q/r arguments come from inner_qr when given (inner
    Step-1 iteration) else from (q_prev, r_prev)."""
    n, m, dt = grid.n, grid.m, grid.dt
    N = ctx.n_paths
    nm = max(driver.n_marks, 1)
    q_src, r_src = inner_qr if inner_qr is not None else (q_prev, r_prev)

    p = np.zeros((N, n + 1 + m))
    q = np.zeros((N, n + 1 + m))
    r = np.zeros((N, n + 1 + m, nm))
    times = grid.times
    for k in range(n - 1, -1, -1):
        p_next = p[:, k + 1]
        q[:, k] = ctx.project(k, p_next * ctx.dB[:, k]) / dt
        if ctx.counts is not None and ctx.intensity > 0:
            n_mk = ctx.counts.shape[2]
            probs = (ctx.mark_probs if ctx.mark_probs is not None
                     else np.full(n_mk, 1.0 / n_mk))
            for j in range(min(nm, n_mk)):
                lam_j = ctx.intensity * probs[j] * dt
                centered = ctx.counts[:, k, j] - lam_j
                r[:, k, j] = ctx.project(k, p_next * centered) / max(lam_j, 1e-300)
        F = driver.fn(times[k], p_prev[:, k], p_prev[:, k + m],
                      p_prev[:, k: k + m + 1],
                      q_src[:, k], q_src[:, k + m], q_src[:, k: k + m + 1],
                      r_src[:, k], r_src[:, k + m], r_src[:, k: k + m + 1])
        p[:, k] = ctx.project(k, p_next - dt * np.asarray(F, float))
    return p, q, r


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def picard_solve(driver: AdvancedDriver, grid: TimeGrid,
                 mode: str = "deterministic",
                 mc_context: Optional[McContext] = None,
                 weight_lambda: Optional[float] = None,
                 tol: float = 1e-12, max_iter: int = 60,
                 inner_max_iter: int = 8,
                 p_init: Optional[np.ndarray] = None):
    """Solve the time-advanced backward equation by successive
    substitution; returns (AdjointTriple, PicardReport).

    Raises NoConvergence when max_iter is exhausted, BadWeight when the
    measured contraction ratio stays >= 1 for 3 consecutive iterations
    (the weight is too small for the driver's Lipschitz constant).  Both
    carry the partial report.
    """
    if mode not in ("deterministic", "regression"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "regression" and mc_context is None:
        raise ValueError("regression mode requires an mc_context ensemble")
    lam = (auto_weight(driver.lipschitz, grid.delta)
           if weight_lambda is None else float(weight_lambda))
    report = PicardReport(weight_lambda=lam, mode=mode)
    n, m = grid.n, grid.m
    nm = max(driver.n_marks, 1)
    ensemble = mode == "regression"

    if ensemble:
        N = mc_context.n_paths
        shape_p = (N, n + 1 + m)
        shape_r = (N, n + 1 + m, nm)
    else:
        shape_p = (n + 1 + m,)
        shape_r = (n + 1 + m, nm)
    p = np.zeros(shape_p)
    if p_init is not None:
        p_init = np.asarray(p_init, float)
        p[..., : min(p_init.shape[-1], n + 1)] = p_init[..., : n + 1]
        p[..., n:] = 0.0  # truncation convention: zero beyond the horizon
    q = np.zeros(shape_p)
    r = np.zeros(shape_r)

    bad_streak = 0
    for it in range(1, max_iter + 1):
        if ensemble:
            # inner Step-1 iteration on the (q, r) arguments
            inner_q, inner_r = np.zeros_like(q), np.zeros_like(r)
            for _inner in range(inner_max_iter):
                p_new, q_new, r_new = _reg_sweep(
                    driver, grid, mc_context, p, q, r,
                    inner_qr=(inner_q, inner_r))
                d_in, _, _ = weighted_distance(
                    grid, lam, q_new - inner_q, dr=r_new - inner_r,
                    ensemble=True)
                inner_q, inner_r = q_new, r_new
                if d_in <= tol:
                    break
        else:
            p_new, q_new, r_new = _det_sweep(driver, grid, p, q, r)

        d, d_p, d_qr = weighted_distance(grid, lam, p_new - p, q_new - q,
                                         r_new - r, ensemble=ensemble)
        # unweighted companion: guards against premature stops when the
        # e^{lambda t} mass concentrates at the horizon
        d_flat, _, _ = weighted_distance(grid, 0.0, p_new - p, q_new - q,
                                         r_new - r, ensemble=ensemble)
        report.distances.append(d)
        report.p_distances.append(d_p)
        report.qr_distances.append(d_qr)
        if len(report.distances) >= 2 and report.distances[-2] > 0:
            report.ratios.append(d / report.distances[-2])
        report.iterations = it
        p, q, r = p_new, q_new, r_new

        if report.ratios and report.ratios[-1] >= 1.0:
            bad_streak += 1
            if bad_streak >= 3:
                raise BadWeight(
                    f"weighted-norm ratio >= 1 for 3 consecutive iterations "
                    f"(weight lambda={lam:.6g} too small for Lipschitz "
                    f"constant {driver.lipschitz:.6g})", report=report)
        else:
            bad_streak = 0
        if max(d, d_flat) <= tol:
            report.converged = True
            break

    if not report.converged:
        raise NoConvergence(
            f"Picard iteration did not reach tol={tol:g} within "
            f"{max_iter} iterations (last distance {report.distances[-1]:g})",
            report=report)
    triple = AdjointTriple(grid=grid, p=p, q=q, r=r, ensemble=ensemble)
    return triple, report


def contraction_diagnostics(report: PicardReport, driver: AdvancedDriver,
                            delta: float, slack: float = 0.25) -> dict:
    """Compare the measured geometric ratio against the theoretical
    sufficient weight; diagnostic only, never raises."""
    lam_star = auto_weight(driver.lipschitz, delta, margin=1.0)
    eps = epsilon_rule(lam_star, delta)
    tail = report.ratios[1:] if len(report.ratios) > 1 else report.ratios
    measured = float(max(tail)) if tail else 0.0
    return {
        "weight_used": report.weight_lambda,
        "weight_sufficient": lam_star,
        "epsilon": eps,
        "measured_ratio": measured,
        "contracting": measured <= 0.5 + slack,
        "iterations": report.iterations,
    }


def uniqueness_probe(driver: AdvancedDriver, grid: TimeGrid,
                     mode: str = "deterministic",
                     mc_context: Optional[McContext] = None,
                     p_init_a=None, p_init_b=None, tol: float = 1e-12,
                     **kwargs) -> float:
    """Weighted distance between converged solutions started from two
    different initializations; Lipschitz drivers must agree to 10*tol."""
    ta, _ = picard_solve(driver, grid, mode, mc_context, tol=tol,
                         p_init=p_init_a, **kwargs)
    tb, _ = picard_solve(driver, grid, mode, mc_context, tol=tol,
                         p_init=p_init_b, **kwargs)
    d, _, _ = weighted_distance(grid, 0.0, ta.p - tb.p, ta.q - tb.q,
                                ta.r - tb.r, ensemble=ta.ensemble)
    return float(np.sqrt(d))
