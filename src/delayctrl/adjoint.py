"""Problem-specific adjoint equations.

First formulation: a single time-advanced backward equation whose driver
mixes Hamiltonian derivatives at t, at t + delta, and integrated over
[t, t + delta]:

    dp(t) = E[mu(t) | F_t] dt + q dB + r dN~,
    mu(t) = -dH/dx(t) - dH/dy(t + delta)
            - e^{rho t} int_t^{t+delta} dH/da(s) e^{-rho s} ds,

solved with the generic Picard machinery in ``absde``.  Advanced reads
are clipped at the truncation horizon (the Hamiltonian derivative terms
vanish beyond T).

Second formulation: three coupled plain backward equations

    dp1 = -dH/dx dt + q1 dB + r dN~,
    dp2 = -dH/dy dt + q2 dB,
    dp3 = -dH/da dt,

with H the three-adjoint Hamiltonian.  In deterministic mode (no
diffusion along the reference path) this is a linear terminal-value ODE
system, integrated backward with Heun's method (second order) from
p(T) = 0.

Terminal condition: the formulations only constrain the adjoint through
a transversality limit; all solves here use p(T) = 0 on a truncated
horizon, to be probed by doubling T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .absde import AdvancedDriver, McContext, _trapz_weights, picard_solve
from .forward import ControlSpec, simulate_noiseless, stack_records
from .hamiltonian import _average_coefficients
from .model import ProblemSpec, TimeGrid, _write_csv, setting

_PARTIAL_VARS = ("x", "y", "a")


def _compact_rows(vals: np.ndarray) -> np.ndarray:
    """``vals`` (leading path axis) as its first row when every row holds
    the same bits, compared as int64 so -0.0 and NaN patterns count;
    otherwise ``vals`` itself."""
    bits = vals.view(np.int64)
    same = np.array_equal(bits, np.broadcast_to(bits[:1], bits.shape))
    return vals[0] if same else vals


def _coefficient_partial_arrays(spec: ProblemSpec, grid: TimeGrid, path):
    """Evaluate the (x, y, a) partials of f, b, sigma (and theta per mark)
    along a reference path; arrays are zero-padded past the horizon so
    advanced reads clip to zero there.

    ``path`` supplies arrays X, Y, A, u over the n+1 grid nodes, either
    1-D (deterministic) or 2-D with a leading path axis.  On a stacked
    path a partial that is bitwise the same on every path (a constant or
    a function of t only) is kept as one padded time row of shape
    (n+1+m,), or (n+1+m, marks) for theta, which its readers broadcast
    against the path axis.
    """
    n, m = grid.n, grid.m
    t = grid.times
    X, Y, A, u = path["X"], path["Y"], path["A"], path["u"]
    stacked = X.ndim > 1
    jump = spec.jump

    def padded(partial, *mark):
        with np.errstate(all="ignore"):
            vals = np.asarray(partial(t, X, Y, A, u, *mark), float)
        vals = np.broadcast_to(vals, X.shape)
        if stacked:
            vals = _compact_rows(vals)
        arr = np.zeros(vals.shape[:-1] + (n + 1 + m,))
        arr[..., : n + 1] = vals
        return arr

    out = {}
    for name in ("f", "b", "sigma"):
        for var in _PARTIAL_VARS:
            out[f"{name}_{var}"] = padded(spec.coeffs.partial(name, var))
    if spec.has_jumps:
        for var in _PARTIAL_VARS:
            dtheta = spec.coeffs.partial("theta", var)
            marks = [padded(dtheta, z) for z in jump.marks.values]
            # (..., nodes, marks); one row per path once any mark needs it
            out[f"theta_{var}"] = np.stack(np.broadcast_arrays(*marks), axis=-1)
        out["mark_weights"] = jump.intensity * np.asarray(jump.marks.probs)
    return out


def _segment_kernel(grid: TimeGrid, rho: float) -> np.ndarray:
    """Trapezoid weights for e^{rho t} int_t^{t+delta} g(s) e^{-rho s} ds
    expressed against the forward segment g(t), ..., g(t+delta)."""
    m, dt = grid.m, grid.dt
    return _trapz_weights(m, dt) * np.exp(-rho * dt * np.arange(m + 1))


def _grid_function(grid: TimeGrid, values: np.ndarray):
    """p(t, x, y, a) of values sampled on the grid: the value at the node
    nearest t (the last one past the horizon), broadcast to x's shape."""

    def p(t, x, y, a):
        k = min(grid.n, int(round(np.asarray(t, float) / grid.dt)))
        return np.broadcast_to(values[k], np.shape(x))

    return p


def _estimate_lipschitz(P: dict, grid: TimeGrid) -> float:
    def mx(key):
        return float(np.max(np.abs(P[key]))) if key in P else 0.0

    def jump_mx(var):
        key = f"theta_{var}"
        if key not in P:
            return 0.0
        w = P["mark_weights"]
        return float(np.max(np.sum(np.abs(P[key]) * w, axis=-1)))

    c_now = mx("b_x") + mx("sigma_x") + jump_mx("x")
    c_adv = mx("b_y") + mx("sigma_y") + jump_mx("y")
    c_seg = (mx("b_a") + mx("sigma_a") + jump_mx("a")) * grid.delta
    return max(c_now + c_adv + c_seg, 1e-6)


def _h_partial(P: dict, var: str, sl, p, q, r):
    """dH/d<var> over the node selection ``sl`` for adjoint values p, q, r,
    as one new array of p's shape: b p + f + sigma q (+ the jump term),
    the bits of f + b p + sigma q since IEEE addition commutes.

    A coefficient missing from ``P`` (``build_first_driver`` leaves out
    the all-zero ones) drops its term: the sum starts from +0.0 when
    there is no b, and the p, q or r that the term would multiply is not
    read.  Only the sign of an exact zero of the sum can differ from
    adding the zero term."""
    b, f, sigma, theta = (P.get(f"{name}_{var}")
                          for name in ("b", "f", "sigma", "theta"))
    val = np.zeros(p.shape) if b is None else b[..., sl] * p
    if f is not None:
        val += f[..., sl]
    if sigma is not None:
        val += sigma[..., sl] * q
    if theta is not None:
        val += np.sum(theta[..., sl, :] * P["mark_weights"] * r, axis=-1)
    return val


def _segment_integral(ha: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Kernel-weighted forward-segment sums of ha at every grid node: one
    "valid" correlation over the path rows laid end to end (a 1-D ha is a
    single row), read back without the outputs whose window straddles two
    rows.  Each kept output is the dot product the per-row correlation
    takes, so the bits are those of one correlation per row."""
    nodes = ha.shape[-1]
    rows = ha.size // nodes
    width = nodes - kernel.size + 1
    flat = np.correlate(ha.ravel(), kernel, mode="valid")
    out = np.lib.stride_tricks.as_strided(
        flat, shape=(rows, width),
        strides=(nodes * flat.itemsize, flat.itemsize), writeable=False)
    return out.reshape(ha.shape[:-1] + (width,))


def build_first_driver(spec: ProblemSpec, grid: TimeGrid, path,
                       deterministic: Optional[bool] = None) -> AdvancedDriver:
    """Assemble mu(t) as an AdvancedDriver over the given reference path.

    ``path`` arrays are 1-D (one deterministic path) or carry a leading
    path axis (regression ensemble); both modes call the same
    ``fn(p, q, r)``.  ``deterministic`` is accepted for existing callers
    and no longer changes the driver.

    The partials along the path are fixed for the whole solve, so the
    driver decides once which of its terms are live: a coefficient
    partial that is +-0.0 at every path and node is dead (NaN and inf
    are not zero, so they keep theirs live), and ``fn`` neither
    evaluates nor adds its term.  The dH/dy term is left out when the
    y partials of f, b, sigma (and theta) are all dead, and the segment
    integral of dH/da when the a partials are.  Against adding every
    term, only the sign of an exact zero of F can change, and an
    iterate value that only dead terms would multiply is not read, so
    a NaN or inf there raises no ``NonFiniteDriver``.
    """
    P = {key: v for key, v in
         _coefficient_partial_arrays(spec, grid, path).items()
         if key == "mark_weights" or v.any()}
    live = {var: any(f"{name}_{var}" in P
                     for name in ("f", "b", "sigma", "theta"))
            for var in ("y", "a")}
    kernel = _segment_kernel(grid, spec.rho)
    n, m = grid.n, grid.m
    n_marks = spec.jump.n_marks if spec.has_jumps else 0
    sl_now, sl_adv = slice(0, n + 1), slice(m, n + 1 + m)

    def fn(p, q, r):
        F = _h_partial(P, "x", sl_now, p[..., sl_now], q[..., sl_now],
                       r[..., sl_now, :])
        if live["y"]:
            F += _h_partial(P, "y", sl_adv, p[..., sl_adv], q[..., sl_adv],
                            r[..., sl_adv, :])
        if live["a"]:
            F += _segment_integral(_h_partial(P, "a", slice(None), p, q, r),
                                   kernel)
        return np.negative(F, out=F)

    return AdvancedDriver(fn=fn, lipschitz=_estimate_lipschitz(P, grid),
                          n_marks=n_marks)


def prepare_first_adjoint(spec: ProblemSpec, grid: TimeGrid,
                          control: ControlSpec, ensemble=None,
                          solver_cfg: Optional[dict] = None):
    """The driver of the time-advanced adjoint equation under a reference
    control, plus the picard_solve keyword arguments that solve it.

    Deterministic mode (no ensemble): the reference path is the single
    noiseless path; appropriate when sigma = 0 and there are no jumps.
    Regression mode: pass an ensemble simulated under the control, as
    its ``EnsembleResult.arrays`` or as a list of PathRecords (stacked
    here, a copy); conditional expectations regress on (X, Y, A) with
    monomials up to the solver section's ``basis_degree``, an integer
    >= 0 (read in both modes).
    """
    cfg = solver_cfg or {}
    options = {"weight_lambda": setting(cfg, "solver", "weight_lambda"),
               "tol": setting(cfg, "solver", "picard_tol"),
               "max_iter": setting(cfg, "solver", "picard_max_iter")}
    degree = setting(cfg, "solver", "basis_degree")
    if ensemble is None:
        rec = simulate_noiseless(spec, grid, control)
        path = {"X": rec.X, "Y": rec.Y, "A": rec.A, "u": rec.u}
        return build_first_driver(spec, grid, path), options

    S = (ensemble if isinstance(ensemble, dict) else
         stack_records(ensemble, ("X", "Y", "A", "u", "dB", "counts")))
    driver = build_first_driver(spec, grid, S)
    intensity, probs = ((spec.jump.intensity, spec.jump.marks.probs)
                        if spec.has_jumps else (0.0, None))
    ctx = McContext(S["X"], S["Y"], S["A"], S["dB"], S["counts"],
                    intensity=intensity, mark_probs=probs,
                    basis_degree=degree)
    return driver, dict(mc_context=ctx, **options)


def solve_first_adjoint(spec: ProblemSpec, grid: TimeGrid,
                        control: ControlSpec, ensemble=None,
                        solver_cfg: Optional[dict] = None):
    """Solve the time-advanced adjoint equation under a reference control
    (modes as in ``prepare_first_adjoint``).

    Returns (AdjointTriple, PicardReport).
    """
    driver, options = prepare_first_adjoint(spec, grid, control, ensemble,
                                            solver_cfg)
    return picard_solve(driver, grid, **options)


# ---------------------------------------------------------------------------
# Second formulation
# ---------------------------------------------------------------------------

@dataclass
class SecondAdjointResult:
    """Grid-sampled solution of the three-equation adjoint system."""

    grid: TimeGrid
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    r: np.ndarray

    def to_csv(self, path: str):
        nm = self.r.shape[1] if self.r.ndim == 2 else 1
        cols = ["t", "p1", "p2", "p3", "q1", "q2"] + [f"r_{j}" for j in range(nm)]
        nodes = self.grid.n + 1
        _write_csv(path, cols, np.column_stack([self.grid.times] + [
            v[:nodes] for v in (self.p1, self.p2, self.p3, self.q1, self.q2,
                                self.r)]))


def solve_second_adjoint(spec: ProblemSpec, grid: TimeGrid,
                         control: ControlSpec) -> SecondAdjointResult:
    """Backward Heun integration of the coupled (p1, p2, p3) system along
    the deterministic reference path, from p(T) = 0.

    The Hamiltonian derivatives feeding the right-hand side are

        dH/dv = f_v + b_v p1 + c_v p2,   v = x, y, a,

    with c the coefficients of H2's moving-average term
    (``hamiltonian._average_coefficients``: 1, -lambda and
    -e^{-lambda delta}) and q1 = q2 = r = 0 in the noiseless setting.
    """
    rec = simulate_noiseless(spec, grid, control)
    path = {"X": rec.X, "Y": rec.Y, "A": rec.A, "u": rec.u}
    P = _coefficient_partial_arrays(spec, grid, path)
    n = grid.n
    dt = grid.dt
    rows = [(P[f"f_{v}"][: n + 1], P[f"b_{v}"][: n + 1], c)
            for v, c in _average_coefficients(spec).items()]

    def rhs(k, p):
        # dp/dt at node k for p = (p1, p2, p3)
        p1, p2, _ = p
        return np.array([-(f[k] + b[k] * p1 + c * p2) for f, b, c in rows])

    p1 = np.zeros(n + 1)
    p2 = np.zeros(n + 1)
    p3 = np.zeros(n + 1)
    p = np.zeros(3)
    for k in range(n - 1, -1, -1):
        g1 = rhs(k + 1, p)
        pred = p - dt * g1
        g0 = rhs(k, pred)
        p = p - 0.5 * dt * (g1 + g0)
        p1[k], p2[k], p3[k] = p

    zeros = np.zeros(n + 1)
    return SecondAdjointResult(grid=grid, p1=p1, p2=p2, p3=p3,
                               q1=zeros.copy(), q2=zeros.copy(),
                               r=np.zeros((n + 1, 1)))


def p3_flatness(p3: np.ndarray, tol: float):
    """Whether p3 vanishes along the grid; returns (flat, max deviation)."""
    dev = float(np.max(np.abs(p3)))
    return dev <= tol, dev
