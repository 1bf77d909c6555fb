"""Closed-form benchmark problems with power-utility consumption.

Two worked instances serve as ground truth for the solvers and the
optimality checks:

* a no-delay instance: maximize E int e^{-rho t} (u X)^gamma / gamma dt
  for dX = (mu X - u X) dt + sigma dB, whose optimal control consumes a
  deterministic amount c(t) and whose shadow price is p1(0) e^{-mu t};

* a delayed instance: the reward depends on the composite wealth
  W = X + Y e^{rho delta} beta, with dynamics
  dX = (mu X + alpha Y + beta A - u W) dt + sigma dB.  When alpha
  satisfies alpha = e^{rho delta} beta (mu + lambda + e^{rho delta} beta)
  the three-component adjoint collapses to the proportional pair
  p1 = (e^{-rho delta} / beta) p2 with p3 = 0, and the optimal control
  has the same consumption structure with decay mu + e^{rho delta} beta.

This module also provides the coefficient-set builders behind the
configuration selectors, and ``example_params``, the one reader of an
example selector's parameters: the simulated coefficients and the closed
forms are built from the same dataclass.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergentIntegral, DomainError, NoSignChange
from .forward import ControlSpec, feedback_control, simulate_noiseless
from .model import (CoefficientSet, ProblemSpec, constant_segment, make_grid,
                    param, problem_rates, refuse_unknown_params, setting,
                    zero_partial)

# bisection levels of the ex35_K search integrated as lanes of one
# noiseless pass (2^L - 1 lanes); chosen by timing the search
K_SEARCH_LEVELS = 6


@dataclass(frozen=True)
class Example34Params:
    gamma: float = 0.5
    mu: float = 0.05
    rho: float = 0.1
    sigma0: float = 0.0  # diffusion rule sigma = sigma0 * x
    X0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie strictly inside (0, 1)")
        if self.rho <= 0:
            raise ConfigError("rho must be positive")


@dataclass(frozen=True)
class Example35Params:
    gamma: float = 0.5
    mu: float = 0.05
    alpha: float = None  # None: match the proportionality constraint
    beta: float = 0.05
    rho: float = 0.1
    delta: float = 1.0
    lambda_avg: float = 0.1
    sigma0: float = 0.0
    X0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie strictly inside (0, 1)")
        if self.rho <= 0 or self.delta <= 0:
            raise ConfigError("rho and delta must be positive")
        if self.alpha is None:
            object.__setattr__(self, "alpha", ex35_matched_alpha(self))

    @property
    def edb(self) -> float:
        """e^{rho delta} beta, the lag weight in the composite wealth."""
        return float(np.exp(self.rho * self.delta) * self.beta)


# ---------------------------------------------------------------------------
# No-delay closed forms
# ---------------------------------------------------------------------------

def ex34_adjoint(params: Example34Params, t, p0: float):
    """Shadow price p1(t) = p1(0) e^{-mu t}."""
    return p0 * np.exp(-params.mu * np.asarray(t, float))


def ex34_control(params: Example34Params, t: float, x: float, p0: float) -> float:
    """Optimal feedback u(t, x) = p0^{1/(gamma-1)} / x * e^{(rho-mu)t/(gamma-1)}."""
    if x <= 0:
        raise DomainError(f"wealth must be positive, got x={x}")
    if p0 <= 0:
        raise DomainError(f"multiplier must be positive, got p0={p0}")
    g1 = params.gamma - 1.0
    return (p0 ** (1.0 / g1) / x) * np.exp((params.rho - params.mu) * t / g1)


def _consumption_scale(p0, gamma: float):
    """p0^{1/(gamma-1)}; a sequence of multipliers gives one entry per
    lane, each the power a scalar p0 gets."""
    expo = 1.0 / (gamma - 1.0)
    if np.ndim(p0) == 0:
        return p0 ** expo
    return np.array([float(p) ** expo for p in p0])


def ex34_feedback(params: Example34Params, p0) -> ControlSpec:
    """Vectorized feedback-rule wrapper around ex34_control.  A sequence
    of multipliers gives a rule over a lane axis, lane i consuming with
    p0[i] exactly as the scalar rule does (for
    ``simulate_noiseless(..., lanes=len(p0))``).  The rule does not read
    the moving average."""
    g1 = params.gamma - 1.0
    c0 = _consumption_scale(p0, params.gamma)
    rate = (params.rho - params.mu) / g1

    def rule(t, x, y, a):
        with np.errstate(all="ignore"):
            return c0 * np.exp(rate * t) / np.asarray(x, float)

    return feedback_control(rule, reads_average=False)


def ex34_p0_star(params: Example34Params) -> float:
    """The multiplier keeping wealth nonnegative along the deterministic
    flow: p1(0) = [X0 / I]^{gamma-1} with
    I = int_0^inf e^{-(mu + (rho-mu)/(1-gamma)) s} ds."""
    decay = params.mu + (params.rho - params.mu) / (1.0 - params.gamma)
    if decay <= 0:
        raise DivergentIntegral(
            f"normalizing integral diverges: mu + (rho-mu)/(1-gamma) = {decay:g} <= 0")
    integral = 1.0 / decay
    return (params.X0 / integral) ** (params.gamma - 1.0)


def ex34_objective(params: Example34Params, p0: float) -> float:
    """Closed-form J under the feedback rule with multiplier p0 (exact for
    sigma-rules that leave u X deterministic, e.g. sigma = sigma0 x)."""
    g = params.gamma
    g1 = g - 1.0
    kappa = -params.rho + g * (params.rho - params.mu) / g1
    if kappa >= 0:
        raise DivergentIntegral("discounted utility integral diverges")
    return p0 ** (g / g1) / (g * (-kappa))


def ex34_state(params: Example34Params, t, p0: float):
    """Deterministic wealth under the feedback rule (sigma-independent in
    mean only when sigma = 0): variation-of-constants solution."""
    t = np.asarray(t, float)
    g1 = params.gamma - 1.0
    rate = (params.rho - params.mu) / g1
    decay = params.mu + (params.rho - params.mu) / (1.0 - params.gamma)
    c0 = p0 ** (1.0 / g1)
    # X(t) = e^{mu t} [X0 - c0 int_0^t e^{(rate - mu)s} ds]
    expo = rate - params.mu
    integral = t if abs(expo) < 1e-15 else np.expm1(expo * t) / expo
    return np.exp(params.mu * t) * (params.X0 - c0 * integral)


# ---------------------------------------------------------------------------
# Delayed closed forms
# ---------------------------------------------------------------------------

def ex35_matched_alpha(params: Example35Params) -> float:
    """The alpha making the adjoint pair proportional:
    alpha = e^{rho delta} beta (mu + lambda + e^{rho delta} beta)."""
    edb = params.edb
    return edb * (params.mu + params.lambda_avg + edb)


def ex35_alpha_residual(params: Example35Params) -> float:
    return params.alpha - ex35_matched_alpha(params)


def ex35_adjoint(params: Example35Params, t, p0: float):
    """p1(t) = p1(0) e^{-(mu + e^{rho delta} beta) t}."""
    return p0 * np.exp(-(params.mu + params.edb) * np.asarray(t, float))


def ex35_feedback(params: Example35Params, p0) -> ControlSpec:
    """Optimal feedback
    u = p0^{1/(gamma-1)} / W * e^{(rho - mu - e^{rho delta} beta) t / (gamma-1)}
    with W = x + y e^{rho delta} beta; a sequence of multipliers gives a
    rule over a lane axis, as in ex34_feedback.  The rule does not read
    the moving average."""
    g1 = params.gamma - 1.0
    c0 = _consumption_scale(p0, params.gamma)
    rate = (params.rho - (params.mu + params.edb)) / g1
    edb = params.edb

    def rule(t, x, y, a):
        with np.errstate(all="ignore"):
            W = np.asarray(x, float) + np.asarray(y, float) * edb
            return c0 * np.exp(rate * t) / W

    return feedback_control(rule, reads_average=False)


def ex35_K(params: Example35Params, search_cfg: dict = None) -> float:
    """Smallest multiplier keeping the composite wealth positive along the
    noiseless flow, located by bisection on p1(0).

    The bisection runs ``K_SEARCH_LEVELS`` levels per noiseless pass: the
    midpoints of every bracket those levels can reach are integrated as
    lanes of one pass (the first pass also carries the two bracket ends),
    then the tree is walked with the per-lane verdicts.  Each midpoint is
    the scalar search's own ``0.5 * (p_lo + p_hi)`` and each lane is
    bitwise its scalar run, so the brackets, and K, are those of one run
    per level.  The search ends when the bracket is no wider than
    ``tol``, or when it can no longer split: its midpoint is one of its
    ends, which a ``tol`` below the bracket's float spacing reaches."""
    T_search, dt, tol, p_hi, p_lo = (
        setting(search_cfg or {}, "search", key)
        for key in ("T_search", "dt", "tol", "bracket_hi", "bracket_lo"))

    spec = make_ex35_problem(params, u_hi=1e12)
    grid = make_grid(params.delta, dt, T_search)
    edb = params.edb

    def wealth_stays_positive(p0s) -> np.ndarray:
        # a lane whose state goes non-finite fails the finiteness test
        rec = simulate_noiseless(spec, grid, ex35_feedback(params, p0s),
                                 lanes=len(p0s))
        W = rec.X + rec.Y * edb
        return np.all(np.isfinite(W) & (W > 0), axis=-1)

    # larger multiplier means smaller consumption, hence safer wealth; the
    # first pass also integrates the first levels of the bisection, which
    # stand unless a bracket end has to move
    bracket = (p_lo, p_hi)
    mids = _bisection_midpoints(p_lo, p_hi, tol, K_SEARCH_LEVELS)
    hi_ok, lo_ok, *safe = wealth_stays_positive([p_hi, p_lo, *mids.values()])
    expansions = 0
    while not hi_ok:
        p_hi *= 2.0
        expansions += 1
        if expansions > 60:
            raise NoSignChange("no multiplier keeps the wealth positive")
        (hi_ok,) = wealth_stays_positive([p_hi])
    expansions = 0
    while lo_ok:
        p_lo *= 0.5
        expansions += 1
        if expansions > 60:
            raise NoSignChange("wealth stays positive for every multiplier probed")
        (lo_ok,) = wealth_stays_positive([p_lo])

    if (p_lo, p_hi) != bracket:
        mids = {}
    while p_hi - p_lo > tol:
        if not mids:
            mids = _bisection_midpoints(p_lo, p_hi, tol, K_SEARCH_LEVELS)
            if not mids:  # the midpoint is p_lo or p_hi
                break
            safe = wealth_stays_positive(list(mids.values()))
        verdict = dict(zip(mids, safe))
        node = 0
        while node in mids:
            if verdict[node]:
                p_hi = mids[node]
                node = 2 * node + 1
            else:
                p_lo = mids[node]
                node = 2 * node + 2
        mids = {}
    return 0.5 * (p_lo + p_hi)


def _bisection_midpoints(p_lo: float, p_hi: float, tol: float,
                         levels: int) -> dict:
    """Midpoints of the next ``levels`` bisection steps from the bracket
    (p_lo, p_hi), keyed by heap index: node i's bracket splits at its
    midpoint into (lo, mid) for node 2i+1 and (mid, hi) for node 2i+2,
    and a bracket no wider than ``tol``, or whose midpoint is one of its
    ends, is not split."""
    brackets = {0: (p_lo, p_hi)}
    mids = {}
    for node in range(2 ** levels - 1):
        if node not in brackets:
            continue
        lo, hi = brackets[node]
        mid = 0.5 * (lo + hi)
        if not hi - lo > tol or mid in (lo, hi):
            continue
        mids[node] = mid
        brackets[2 * node + 1] = (lo, mid)
        brackets[2 * node + 2] = (mid, hi)
    return mids


# ---------------------------------------------------------------------------
# Coefficient builders (configuration selectors)
# ---------------------------------------------------------------------------

def _power(base, expo):
    with np.errstate(all="ignore"):
        return np.asarray(base, float) ** expo


def coefficients_ex34(params: Example34Params) -> CoefficientSet:
    gamma, mu, rr, sigma0 = params.gamma, params.mu, params.rho, params.sigma0

    def b(t, x, y, a, u):
        return mu * x - u * x

    def sigma(t, x, y, a, u):
        return sigma0 * x

    def f(t, x, y, a, u):
        return np.exp(-rr * t) * _power(u * x, gamma) / gamma

    partials = {
        "b": {"x": lambda t, x, y, a, u: mu - u,
              "y": zero_partial, "a": zero_partial,
              "u": lambda t, x, y, a, u: -np.asarray(x, float)},
        "sigma": {"x": lambda t, x, y, a, u: np.full_like(np.asarray(x, float), sigma0),
                  "y": zero_partial, "a": zero_partial, "u": zero_partial},
        "f": {"x": lambda t, x, y, a, u: np.exp(-rr * t) * _power(u, gamma) * _power(x, gamma - 1.0),
              "y": zero_partial, "a": zero_partial,
              "u": lambda t, x, y, a, u: np.exp(-rr * t) * _power(u, gamma - 1.0) * _power(x, gamma)},
    }
    return CoefficientSet(b=b, sigma=sigma, theta=None, f=f, partials=partials)


def coefficients_ex35(params: Example35Params) -> CoefficientSet:
    gamma, mu, rr, sigma0 = params.gamma, params.mu, params.rho, params.sigma0
    alpha, beta, edb = params.alpha, params.beta, params.edb

    def W(x, y):
        return np.asarray(x, float) + np.asarray(y, float) * edb

    def b(t, x, y, a, u):
        return mu * x + alpha * y + beta * a - u * W(x, y)

    def sigma(t, x, y, a, u):
        return sigma0 * W(x, y)

    def f(t, x, y, a, u):
        return np.exp(-rr * t) * _power(u * W(x, y), gamma) / gamma

    def f_marginal(t, x, y, a, u):
        # d/dW of the utility term, shared by the x and y partials
        return np.exp(-rr * t) * _power(u, gamma) * _power(W(x, y), gamma - 1.0)

    partials = {
        "b": {"x": lambda t, x, y, a, u: mu - u,
              "y": lambda t, x, y, a, u: alpha - u * edb,
              "a": lambda t, x, y, a, u: np.full_like(np.asarray(x, float), beta),
              "u": lambda t, x, y, a, u: -W(x, y)},
        "sigma": {"x": lambda t, x, y, a, u: np.full_like(np.asarray(x, float), sigma0),
                  "y": lambda t, x, y, a, u: np.full_like(np.asarray(x, float), sigma0 * edb),
                  "a": zero_partial, "u": zero_partial},
        "f": {"x": f_marginal,
              "y": lambda t, x, y, a, u: edb * f_marginal(t, x, y, a, u),
              "a": zero_partial,
              "u": lambda t, x, y, a, u: np.exp(-rr * t) * _power(u, gamma - 1.0) * _power(W(x, y), gamma)},
    }
    return CoefficientSet(b=b, sigma=sigma, theta=None, f=f, partials=partials)


def coefficients_linear_quadratic(p: dict, discount: float) -> CoefficientSet:
    defaults = {"kx": -0.2, "ky": 0.1, "ka": 0.05, "ku": 1.0, "s0": 0.1, "sx": 0.0,
                "cx": -0.5, "cu": -0.5, "cl": 0.0, "discount": discount}
    refuse_unknown_params(p, defaults)
    kx, ky, ka, ku, s0, sx, cx, cu, cl, disc = (
        param(p, key, value) for key, value in defaults.items())

    def b(t, x, y, a, u):
        return kx * x + ky * y + ka * a + ku * u

    def sigma(t, x, y, a, u):
        return s0 + sx * x

    def f(t, x, y, a, u):
        return np.exp(-disc * t) * (cx * x ** 2 + cu * u ** 2 + cl * u)

    const = lambda v: (lambda t, x, y, a, u: np.full_like(np.asarray(x, float), v))
    partials = {
        "b": {"x": const(kx), "y": const(ky), "a": const(ka), "u": const(ku)},
        "sigma": {"x": const(sx), "y": zero_partial, "a": zero_partial,
                  "u": zero_partial},
        "f": {"x": lambda t, x, y, a, u: np.exp(-disc * t) * 2 * cx * x,
              "y": zero_partial, "a": zero_partial,
              "u": lambda t, x, y, a, u: np.exp(-disc * t) * (2 * cu * u + cl)},
    }
    return CoefficientSet(b=b, sigma=sigma, theta=None, f=f, partials=partials)


def coefficients_polynomial(p: dict) -> CoefficientSet:
    """Coefficients as sums of monomials c * x^i y^j a^k u^l; each of
    b / sigma / f is a list of [c, i, j, k, l] terms, optionally with a
    discount factor e^{-rate t} applied to f.  Partials fall back to
    central finite differences."""
    refuse_unknown_params(p, ("b", "sigma", "f", "f_discount"))

    def poly(terms):
        terms = [tuple(term) for term in terms]

        def fun(t, x, y, a, u):
            x = np.asarray(x, float)
            total = np.zeros_like(x)
            with np.errstate(all="ignore"):
                for c, i, j, k, l in terms:
                    total = total + c * x ** i * np.asarray(y, float) ** j \
                        * np.asarray(a, float) ** k * np.asarray(u, float) ** l
            return total

        return fun

    b = poly(p.get("b", []))
    sigma = poly(p.get("sigma", []))
    f_rate = param(p, "f_discount", 0.0)
    f_poly = poly(p.get("f", []))

    def f(t, x, y, a, u):
        return np.exp(-f_rate * t) * f_poly(t, x, y, a, u)

    return CoefficientSet(b=b, sigma=sigma, theta=None, f=f, partials={})


def coefficients_zero() -> CoefficientSet:
    partials = {name: {v: zero_partial for v in ("x", "y", "a", "u")}
                for name in ("b", "sigma", "f")}
    return CoefficientSet(b=zero_partial, sigma=zero_partial, theta=None,
                          f=zero_partial, partials=partials)


# ---------------------------------------------------------------------------
# Problem-spec conveniences
# ---------------------------------------------------------------------------

def example_params(raw_config: dict):
    """The closed-form parameters of an example selector's config, or
    None for any other selector: the keys ``problem.params`` sets, the
    dataclass defaults for the rest.  ``rho`` falls back to problem.rho;
    ``delta`` and ``lambda_avg`` are the problem section's resolved values
    (``model.problem_rates``), and ``params`` may not set them."""
    prob = raw_config.get("problem", {})
    cls = {"example_3_4": Example34Params,
           "example_3_5": Example35Params}.get(
               setting(prob, "problem", "selector"))
    if cls is None:
        return None
    names = {f.name for f in dataclasses.fields(cls)}
    params = setting(prob, "problem", "params")
    for key in ("delta", "lambda_avg"):
        if key in params:
            raise ConfigError(f"problem.params.{key} is not read; set "
                              f"problem.{key} instead")
    refuse_unknown_params(params, names - {"delta", "lambda_avg"})
    delta, rho, lambda_avg, _ = problem_rates(prob)
    given = {"rho": rho, **{key: param(params, key) for key in params},
             "delta": delta, "lambda_avg": lambda_avg}
    return cls(**{key: value for key, value in given.items()
                  if key in names and value is not None})


def make_ex34_problem(params: Example34Params, delta: float = 1.0,
                      u_hi: float = 1.0) -> ProblemSpec:
    """Full ProblemSpec for the no-delay benchmark (delta only affects the
    bookkeeping; the coefficients ignore y and a)."""
    return ProblemSpec(
        delta=delta, rho=params.rho, lambda_avg=params.rho,
        discount=params.rho, coeffs=coefficients_ex34(params),
        control_lo=0.0, control_hi=u_hi,
        initial_segment=constant_segment(params.X0))


def make_ex35_problem(params: Example35Params, u_hi: float = 1.0) -> ProblemSpec:
    return ProblemSpec(
        delta=params.delta, rho=params.rho, lambda_avg=params.lambda_avg,
        discount=params.rho, coeffs=coefficients_ex35(params),
        control_lo=0.0, control_hi=u_hi,
        initial_segment=constant_segment(params.X0))
