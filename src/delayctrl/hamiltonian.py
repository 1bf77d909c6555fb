"""The Hamiltonian of both maximum-principle formulations, its
gradients, and a Monte Carlo residual check of the delay Ito formula.

One ``eval_H`` serves both formulations.  The first (scalar adjoint) is

    H1 = f + b p + sigma q + int theta(z) r(z) nu(dz);

the second (three-component adjoint) is H1 with p = p1, q = q1 plus the
moving-average term of the adjoint p2,

    H2 = H1 + (x - lambda y - e^{-lambda delta} a) p2,

with lambda the averaging decay (lambda_avg of the problem spec).  The
other two adjoint components, p3 and q2, do not enter H.

The nu-integral is intensity times the expectation over the discrete
mark distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFinite
from .forward import ControlSpec, StepAccumulator, simulate_ensemble
from .model import ProblemSpec, TimeGrid
from .objective import mean_stderr


@dataclass(frozen=True)
class HamArgs:
    """Arguments of the Hamiltonian.  ``r`` is the jump adjoint as a
    function of the mark, None for zero.  ``p2``, the moving-average
    adjoint, switches on the second formulation; it stays None for the
    first."""

    t: float
    x: float
    y: float
    a: float
    u: float
    p: float
    q: float
    r: Optional[Callable] = None
    p2: Optional[float] = None


def nu_theta_r(spec: ProblemSpec, t, x, y, a, u, r: Optional[Callable]):
    """int theta(t,x,y,a,u,z) r(z) nu(dz) = intensity * E[theta(Z) r(Z)]."""
    if not spec.has_jumps or r is None:
        return 0.0
    theta = spec.coeffs.theta
    return _nu_weighted(spec, r, lambda z: theta(t, x, y, a, u, z))


def _nu_weighted(spec: ProblemSpec, r: Callable, gz: Callable):
    jump = spec.jump
    total = 0.0
    for z, pz in zip(jump.marks.values, jump.marks.probs):
        total = total + pz * np.asarray(gz(z), float) * r(z)
    return jump.intensity * total


def _check_finite(value, label):
    if not np.all(np.isfinite(value)):
        raise NonFinite(f"{label} evaluated to a non-finite value")
    return value


def _average_coefficients(spec: ProblemSpec) -> dict:
    """The p2 coefficients of H2's moving-average term
    (x - lambda y - e^{-lambda delta} a) p2, by variable."""
    lam = spec.lambda_avg
    return {"x": 1.0, "y": -lam, "a": -np.exp(-lam * spec.delta)}


def eval_H(spec: ProblemSpec, args: HamArgs, check: bool = True):
    """H1, or H2 when ``args.p2`` is given, summed in the order
    f + b p, the p2 term, sigma q, the nu term."""
    c = spec.coeffs
    t, x, y, a, u = args.t, args.x, args.y, args.a, args.u
    val = c.f(t, x, y, a, u) + c.b(t, x, y, a, u) * args.p
    if args.p2 is not None:
        c2 = _average_coefficients(spec)
        val = val + (c2["x"] * x + c2["y"] * y + c2["a"] * a) * args.p2
    val = (val + c.sigma(t, x, y, a, u) * args.q
           + nu_theta_r(spec, t, x, y, a, u, args.r))
    return _check_finite(val, "H") if check else val


def grad_H(spec: ProblemSpec, args: HamArgs, which: str, check: bool = True):
    """Partial derivative of the Hamiltonian in x, y, a, or u by the chain
    rule over the coefficient partials (finite differences fill gaps),
    plus the p2 coefficient when ``args.p2`` is given.

    ``check=False`` returns NaN/inf entries instead of raising, for
    callers that filter out-of-domain ensemble points themselves."""
    if which not in ("x", "y", "a", "u"):
        raise ValueError(f"unknown variable {which!r}")
    c = spec.coeffs
    t, x, y, a, u = args.t, args.x, args.y, args.a, args.u
    val = (c.partial("f", which)(t, x, y, a, u)
           + c.partial("b", which)(t, x, y, a, u) * args.p
           + c.partial("sigma", which)(t, x, y, a, u) * args.q)
    if spec.has_jumps and args.r is not None:
        dtheta = c.partial("theta", which)
        val = val + _nu_weighted(spec, args.r,
                                 lambda z: dtheta(t, x, y, a, u, z))
    if args.p2 is not None:
        val = val + _average_coefficients(spec).get(which, 0.0) * args.p2
    return _check_finite(val, f"dH/d{which}") if check else val


# ---------------------------------------------------------------------------
# Control maximization
# ---------------------------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 60
_NEWTON_STEPS = 3


def maximize_scalar(fn: Callable[[float], float], lo: float, hi: float):
    """Maximize fn on [lo, hi]: golden-section bracketing refined by a few
    Newton steps when the local curvature is negative.  Robust for
    non-concave fn; returns (argmax, value)."""
    a, b = float(lo), float(hi)
    if a == b:
        return a, fn(a)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_ITERS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        if b - a < 1e-12 * max(1.0, abs(a) + abs(b)):
            break
    u = 0.5 * (a + b)
    h = max(1e-6, 1e-6 * abs(u))
    for _ in range(_NEWTON_STEPS):
        f0, fp, fm = fn(u), fn(u + h), fn(u - h)
        g = (fp - fm) / (2 * h)
        curv = (fp - 2 * f0 + fm) / h**2
        if not np.isfinite(curv) or curv >= 0:
            break
        step = g / curv
        u_new = min(float(hi), max(float(lo), u - step))
        if fn(u_new) >= f0:
            u = u_new
        else:
            break
    return u, fn(u)


# ---------------------------------------------------------------------------
# Delay Ito formula residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ItoTestFunction:
    """Test function F(t, x, a) with the partials the generator needs."""

    F: Callable
    F_t: Callable
    F_x: Callable
    F_xx: Callable
    F_a: Callable


class _ItoResidualAccumulator(StepAccumulator):
    """Per-path residual
    F(T, X_T, A_T) - F(0, X_0, A_0) - int_0^T [generator] dt,
    with the generator evaluated at left points:
      LF = F_t + b F_x + 0.5 sigma^2 F_xx
      jump part = intensity * E[F(t, x + theta(Z), a) - F(t, x, a)
                                - theta(Z) F_x(t, x, a)]
      average part = (x - lambda_avg * A - e^{-lambda_avg delta} y) F_a,
    the last factor being the exact drift of A when lambda_avg equals the
    averaging decay used along the path.
    """

    def __init__(self, F: ItoTestFunction):
        self.Ffun = F

    def begin(self, n_lanes, spec, grid):
        return {"spec": spec, "grid": grid, "I": np.zeros(n_lanes),
                "F0": None,
                "decay": np.exp(-spec.lambda_avg * spec.delta)}

    def step(self, st, k, ctx):
        # b, sigma and theta as the engine evaluated them for the step
        spec, F = st["spec"], self.Ffun
        t, x, y, a = ctx["t"], ctx["x"], ctx["y"], ctx["a"]
        if st["F0"] is None:
            st["F0"] = np.asarray(F.F(t, x, a), float) + np.zeros_like(x)
        lam = spec.lambda_avg
        F_x = F.F_x(t, x, a)
        gen = (F.F_t(t, x, a)
               + ctx["b"] * F_x
               + 0.5 * ctx["sigma"] ** 2 * F.F_xx(t, x, a)
               + (x - lam * a - st["decay"] * y) * F.F_a(t, x, a))
        if spec.has_jumps:
            # nu_integral's sum, mark by mark in order
            F_now = F.F(t, x, a)
            jumps = None
            for pz, th in zip(spec.jump.marks.probs, ctx["theta_marks"]):
                term = pz * np.asarray(F.F(t, x + th, a) - F_now - th * F_x,
                                       float)
                jumps = term if jumps is None else jumps + term
            gen = gen + spec.jump.intensity * jumps
        st["I"] += st["grid"].dt * np.asarray(gen, float)

    def finish(self, st, ctx):
        FT = np.asarray(self.Ffun.F(ctx["t"], ctx["x"], ctx["a"]), float)
        res = FT - st["F0"] - st["I"]
        if not np.all(np.isfinite(res)):
            raise NonFinite("Ito-formula residual is not finite")
        return res


def ito_delay_residual(spec: ProblemSpec, grid: TimeGrid, F: ItoTestFunction,
                       control: ControlSpec, n_paths: int, seed: int,
                       threads: int = 1):
    """Monte Carlo mean and standard error of the compensated delay-Ito
    residual; a correct formula drives the mean to 0 up to O(dt) bias."""
    acc = _ItoResidualAccumulator(F)
    res = simulate_ensemble(spec, grid, control, n_paths, seed,
                            accumulators=(acc,), threads=threads)
    return mean_stderr(res.extras[0])
