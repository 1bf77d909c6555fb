"""Problem specification, validation, and the coefficient-function contract.

The controlled state is one-dimensional with three observables fed to every
coefficient: the current value X(t), the lagged value Y(t) = X(t - delta),
and the exponentially weighted moving average
A(t) = int_{t-delta}^{t} e^{-rho (t-r)} X(r) dr.

Coefficient callbacks b, sigma, f have signature (t, x, y, a, u) and the
jump amplitude theta has signature (t, x, y, a, u, z).  All callbacks must
accept numpy arrays for the state/control arguments and broadcast
elementwise; they must be pure (no hidden mutable state) so problem
specifications can be shared across concurrent workers.

Jump marks are discrete (``DiscreteMarks``), and ``ProblemSpec.has_jumps``
is the one test of whether jumps act on the state.

Three private helpers serve the modules above: ``_int_setting`` is the
one reader of an integer config setting (with its default and valid
range), ``_mc_settings`` reads a run's Monte Carlo settings with it
(``n_paths``, ``seed`` and ``threads`` of an ``mc`` section), and
``_write_csv`` is the one writer of the 17-significant-digit CSV files.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    BadInterval,
    ConfigError,
    GridMismatch,
    NonFiniteSegment,
)

STATE_VARS = ("x", "y", "a", "u")

# Central finite differences for missing partials; step scales with the
# argument magnitude but never drops below 1e-6.
_FD_BASE = 1e-6


def _fd_step(v):
    return _FD_BASE * np.maximum(1.0, np.abs(v))


def finite_difference_partial(fn: Callable, var: str) -> Callable:
    """Central-difference partial of ``fn(t, x, y, a, u, *rest)`` in one of
    the state/control slots.  Second-order accurate, step h = max(1e-6,
    1e-6 |v|)."""
    idx = 1 + STATE_VARS.index(var)

    def deriv(t, x, y, a, u, *rest):
        args = [t, np.asarray(x, float), np.asarray(y, float),
                np.asarray(a, float), np.asarray(u, float)]
        h = _fd_step(args[idx])
        hi = list(args)
        lo = list(args)
        hi[idx] = args[idx] + h
        lo[idx] = args[idx] - h
        return (fn(*hi, *rest) - fn(*lo, *rest)) / (2.0 * h)

    deriv.__name__ = f"fd_d{var}"
    return deriv


# ---------------------------------------------------------------------------
# Jump model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMarks:
    """Finitely supported mark distribution; zero mass at z = 0."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, float))
        probs = np.atleast_1d(np.asarray(self.probs, float))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.shape != probs.shape:
            raise ConfigError("mark values and probs must have equal length")
        if np.any(values == 0.0):
            raise ConfigError("mark distribution must not charge z = 0")
        if np.any(probs < 0) or not math.isclose(probs.sum(), 1.0, rel_tol=1e-10):
            raise ConfigError("mark probabilities must be nonnegative and sum to 1")

    def expectation(self, g: Callable):
        """E[g(Z)]; g(z) may return per-path arrays, summed with weights."""
        total = None
        for z, p in zip(self.values, self.probs):
            term = p * np.asarray(g(z), float)
            total = term if total is None else total + term
        return total

    def moments(self):
        m1 = float(np.sum(self.probs * self.values))
        m2 = float(np.sum(self.probs * self.values**2))
        return m1, m2


@dataclass(frozen=True)
class JumpModel:
    """Compound-Poisson jump component: intensity times a discrete mark
    law nu(dz).

    Every integral against nu reduces exactly to ``intensity * E[...]``
    over the mark distribution.
    """

    intensity: float
    marks: DiscreteMarks

    def __post_init__(self):
        if not isinstance(self.marks, DiscreteMarks):
            raise ConfigError("jump marks must be a DiscreteMarks distribution")
        if self.intensity < 0:
            raise ConfigError("jump intensity must be nonnegative")
        if not all(math.isfinite(m) for m in self.marks.moments()):
            raise ConfigError("mark moments must be finite")

    def nu_integral(self, g: Callable):
        """int g(z) nu(dz) = intensity * E[g(Z)]."""
        return self.intensity * self.marks.expectation(g)

    @property
    def n_marks(self) -> int:
        return len(self.marks.values)


# ---------------------------------------------------------------------------
# Time grid
# ---------------------------------------------------------------------------

_GRID_RTOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with the delay aligned exactly: delta = m * dt."""

    dt: float
    horizon: float
    m: int
    n: int

    @property
    def delta(self) -> float:
        return self.m * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.dt

    def history_times(self) -> np.ndarray:
        """Grid points of the initial segment [-delta, 0]."""
        return np.arange(-self.m, 1) * self.dt


def _snap_count(total: float, dt: float, what: str) -> int:
    k = int(round(total / dt))
    if k < 1 or abs(total - k * dt) > _GRID_RTOL * abs(total):
        raise GridMismatch(
            f"{what}={total!r} is not an integer multiple of dt={dt!r} "
            f"(relative error exceeds {_GRID_RTOL})"
        )
    return k


def make_grid(delta: float, dt: float, horizon: float) -> TimeGrid:
    """Validate delta = m*dt and horizon = n*dt (relative tolerance 1e-12),
    snap, and return the grid.  Requires horizon >= delta."""
    if dt <= 0:
        raise GridMismatch("dt must be positive")
    m = _snap_count(delta, dt, "delta")
    n = _snap_count(horizon, dt, "horizon")
    if n < m:
        raise GridMismatch(f"horizon {horizon} shorter than delay {delta}")
    return TimeGrid(dt=dt, horizon=n * dt, m=m, n=n)


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Drift b, diffusion sigma, jump amplitude theta, running reward f,
    with first partials in (x, y, a, u).

    ``partials`` maps coefficient name -> var -> callable with the same
    signature as the coefficient itself.  Missing entries fall back to
    central finite differences.
    """

    b: Callable
    sigma: Callable
    theta: Optional[Callable]
    f: Callable
    partials: dict = field(default_factory=dict)

    def fn(self, name: str) -> Callable:
        return getattr(self, name)

    def partial(self, name: str, var: str) -> Callable:
        if var not in STATE_VARS:
            raise ValueError(f"unknown variable {var!r}")
        supplied = self.partials.get(name, {}).get(var)
        if supplied is not None:
            return supplied
        base = self.fn(name)
        if base is None:
            raise ValueError(f"coefficient {name!r} not defined")
        return finite_difference_partial(base, var)


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Validated, immutable description of one control problem."""

    delta: float
    rho: float
    discount: float
    coeffs: CoefficientSet
    control_lo: float
    control_hi: float
    initial_segment: Callable[[np.ndarray], np.ndarray]
    lambda_avg: float = None  # defaults to rho
    jump: Optional[JumpModel] = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.rho <= 0:
            raise ConfigError("rho must be positive")
        if self.discount <= 0:
            raise ConfigError("discount must be positive")
        if self.control_lo > self.control_hi:
            raise BadInterval(
                f"u_lo={self.control_lo} exceeds u_hi={self.control_hi}"
            )
        if self.lambda_avg is None:
            object.__setattr__(self, "lambda_avg", self.rho)
        if self.lambda_avg <= 0:
            raise ConfigError("lambda_avg must be positive")

    @property
    def has_jumps(self) -> bool:
        """Whether jumps act on the state: a jump component with positive
        intensity and a jump amplitude theta."""
        return (self.jump is not None and self.coeffs.theta is not None
                and self.jump.intensity > 0)

    def validate_segment(self, grid: TimeGrid) -> np.ndarray:
        """Evaluate the initial segment on the history grid; reject NaN/inf."""
        s = grid.history_times()
        vals = np.asarray(self.initial_segment(s), float)
        vals = np.broadcast_to(vals, s.shape).copy()
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSegment(
                "initial segment is not finite on all grid points of [-delta, 0]"
            )
        return vals


# ---------------------------------------------------------------------------
# Config-driven construction
# ---------------------------------------------------------------------------

def require_key(section: dict, name: str, key: str):
    """``section[key]``, or a ConfigError naming the section and the key."""
    if key not in section:
        raise ConfigError(f"config section {name!r} is missing key {key!r}")
    return section[key]


def refuse_unknown_params(params: dict, known) -> None:
    """ConfigError naming the first ``problem.params`` key that is neither in
    ``known`` nor ``rho``, which ``problem_rates`` reads for every selector."""
    unknown = sorted(set(params) - {*known, "rho"})
    if unknown:
        raise ConfigError(f"problem.params has unknown key {unknown[0]!r}; "
                          f"this selector reads {sorted({*known, 'rho'})}")


def constant_segment(value: float) -> Callable:
    """The initial segment X(s) = value on [-delta, 0]."""
    return lambda s: np.full_like(np.asarray(s, float), value)


def _segment_from_config(cfg) -> Callable:
    if callable(cfg):
        return cfg
    kind = cfg.get("kind", "constant")
    if kind == "constant":
        return constant_segment(float(require_key(cfg, "initial_segment", "value")))
    if kind == "linear":
        # X0(s) = value + slope * s on [-delta, 0]
        c = float(require_key(cfg, "initial_segment", "value"))
        slope = float(cfg.get("slope", 0.0))
        return lambda s: c + slope * np.asarray(s, float)
    raise ConfigError(f"unknown initial segment kind {kind!r}")


def problem_rates(prob: dict) -> tuple:
    """(delta, rho, lambda_avg, discount) of a ``problem`` section.
    delta defaults to 1; rho falls back to params.rho, then to 0.1; the
    averaging decay lambda_avg and the discount fall back to rho."""
    rho = float(prob.get("rho", prob.get("params", {}).get("rho", 0.1)))
    lambda_avg = prob.get("lambda_avg")
    return (float(prob.get("delta", 1.0)), rho,
            rho if lambda_avg is None else float(lambda_avg),
            float(prob.get("discount", rho)))


def build_problem(raw_config: dict) -> ProblemSpec:
    """Build and validate a ProblemSpec from a parsed configuration record.

    The record follows the documented schema with a ``problem`` section.
    Selector-specific parameters live under ``problem.params``; built-in
    selectors are ``example_3_4``, ``example_3_5``, ``linear_quadratic``,
    ``custom_polynomial`` and ``zero``.  An example selector's closed-form
    parameters (``examples.example_params``) build its coefficients and
    its constant initial segment X0.  Jump models are built in code: a
    ``jump`` section is refused, since no selector supplies theta.
    Deterministic: identical config content yields identical specs.
    """
    from . import examples  # deferred: examples imports model types

    try:
        prob = raw_config["problem"]
    except KeyError as exc:
        raise ConfigError("config missing 'problem' section") from exc
    if "jump" in raw_config:
        raise ConfigError(
            "config files cannot set a 'jump' section: no selector supplies "
            "a jump amplitude theta; build jump models in code "
            "(ProblemSpec(jump=...))")

    selector = prob.get("selector")
    params = prob.get("params", {})
    delta, rho, lambda_avg, discount = problem_rates(prob)
    bounds = prob.get("control_bounds", [0.0, 1.0])
    if len(bounds) != 2:
        raise ConfigError("control_bounds must be [u_lo, u_hi]")
    u_lo, u_hi = float(bounds[0]), float(bounds[1])
    if u_lo > u_hi:
        raise BadInterval(f"u_lo={u_lo} exceeds u_hi={u_hi}")

    example = examples.example_params(raw_config)
    if selector == "example_3_4":
        coeffs = examples.coefficients_ex34(example)
    elif selector == "example_3_5":
        coeffs = examples.coefficients_ex35(example)
    elif selector == "linear_quadratic":
        coeffs = examples.coefficients_linear_quadratic(params, discount)
    elif selector == "custom_polynomial":
        coeffs = examples.coefficients_polynomial(params)
    elif selector == "zero":
        refuse_unknown_params(params, ())
        coeffs = examples.coefficients_zero()
    else:
        raise ConfigError(f"unknown coefficient selector {selector!r}")

    x0 = 1.0 if example is None else example.X0
    segment = _segment_from_config(prob.get("initial_segment", {"value": x0}))
    if example is not None and np.any(segment(np.array([-delta, 0.0])) != x0):
        raise ConfigError(
            f"selector {selector!r} starts from the constant segment "
            f"params.X0 = {x0!r}; the configured initial_segment differs")
    spec = ProblemSpec(
        delta=delta,
        rho=rho,
        lambda_avg=lambda_avg,
        discount=discount,
        coeffs=coeffs,
        control_lo=u_lo,
        control_hi=u_hi,
        initial_segment=segment,
    )

    grid_cfg = raw_config.get("grid")
    if grid_cfg is not None:
        # Fail early on delay/grid misalignment.
        grid = make_grid(delta, float(require_key(grid_cfg, "grid", "dt")),
                         float(require_key(grid_cfg, "grid", "horizon")))
        spec.validate_segment(grid)
    return spec


# ---------------------------------------------------------------------------
# Run settings and CSV output
# ---------------------------------------------------------------------------

def _int_setting(section: dict, name: str, key: str, default: int,
                 lo: int = 0, hi=math.inf) -> int:
    """``section[key]`` (``default`` when absent) of the config section
    ``name`` as an int in [lo, hi).  It must be an integer: an integral
    float counts, a bool does not.  Any other value is a ConfigError
    naming ``name.key``."""
    value = section.get(key, default)
    if (isinstance(value, bool)
            or not (isinstance(value, numbers.Integral)
                    or isinstance(value, float) and value.is_integer())
            or not lo <= value < hi):
        raise ConfigError(f"{name}.{key} must be an integer in [{lo}, {hi}), "
                          f"got {value!r}")
    return int(value)


def _mc_settings(mc: dict) -> tuple:
    """(n_paths, seed, threads) of an ``mc`` section, by default 1000, 0
    and 1: n_paths and threads at least 1, the seed a Philox key word in
    [0, 2**64)."""
    if not isinstance(mc, dict):
        raise ConfigError(f"config section 'mc' must be an object, got {mc!r}")
    return (_int_setting(mc, "mc", "n_paths", 1000, 1),
            _int_setting(mc, "mc", "seed", 0, 0, 2 ** 64),
            _int_setting(mc, "mc", "threads", 1, 1))


def _write_csv(path: str, header, rows) -> None:
    """Write ``rows`` (one sequence of numbers per row) under the column
    names ``header``, every value as %.17g, which round-trips each float.
    One % formats the whole file, with the row template repeated."""
    rows = np.asarray(rows, float).reshape(-1, len(header))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((",".join(["%.17g"] * len(header)) + "\n") * len(rows)
                 % tuple(rows.ravel().tolist()))
