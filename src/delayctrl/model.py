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

Every config key the package reads is declared once, in ``SETTINGS``:
(section, key) -> (default, check).  ``setting(section, name, key)`` is
the one reader of a key; it returns the checked value or the default, or
raises a ConfigError naming ``name.key``.  ``check_config`` walks a whole
config against the table before anything runs and refuses an unknown
section or key.  The per-selector ``problem.params`` keys are not in the
table: ``refuse_unknown_params`` refuses the keys a selector does not
read, and ``param`` reads a number among them.  ``_mc_settings`` reads a
run's ``n_paths``, ``seed`` and ``threads``, and ``_write_csv`` is the
one writer of the 17-significant-digit CSV files.
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


def zero_partial(t, x, y, a, u, *rest):
    """The structurally zero partial: zeros of the lanes' shape.  A
    coefficient whose partial in a variable is this function does not
    read that variable (``CoefficientSet.reads``); the marker attribute
    survives ``functools.wraps``."""
    return np.zeros_like(np.asarray(x, float))


zero_partial.structural_zero = True


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
    central finite differences.  A partial given as ``zero_partial``
    declares that the coefficient does not read the variable.
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

    def reads(self, name: str, var: str) -> bool:
        """Whether coefficient ``name`` may read ``var``: False only when
        its partial in ``var`` is ``zero_partial``."""
        supplied = self.partials.get(name, {}).get(var)
        return not getattr(supplied, "structural_zero", False)


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
        if self.lambda_avg is None:
            object.__setattr__(self, "lambda_avg", self.rho)
        for name in ("delta", "rho", "discount", "lambda_avg"):
            _POSITIVE(name, getattr(self, name))
        if self.control_lo > self.control_hi:
            raise BadInterval(
                f"u_lo={self.control_lo} exceeds u_hi={self.control_hi}"
            )

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

def _check(what: str, test: Callable, convert=None) -> Callable:
    """A check of a config value: ``check(label, value)`` returns the
    value (read as ``convert`` when given) if it passes ``test``, else
    raises a ConfigError saying that ``label`` must be ``what``."""
    def check(label: str, value):
        if not test(value):
            raise ConfigError(f"{label} must be {what}, got {value!r}")
        return value if convert is None else convert(value)

    check.convert = convert
    return check


def _real(v) -> bool:
    """Whether ``v`` is a finite int or float (a bool is not)."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


def _integer(lo: int, hi=math.inf) -> Callable:
    """An integer in [lo, hi); an integral float counts, a bool does not."""
    return _check(f"an integer in [{lo}, {hi})", lambda v: (
        isinstance(v, numbers.Integral) and not isinstance(v, bool)
        or isinstance(v, float) and v.is_integer()) and lo <= v < hi, int)


def _positive(hi=math.inf, many=False, empty=True) -> Callable:
    """A number in (0, hi], or with ``many`` a list of them (non-empty
    unless ``empty``)."""
    span = f"in (0, {hi:g}{']' if hi < math.inf else ')'}"
    one = lambda v: _real(v) and 0 < v <= hi
    if not many:
        return _check(f"a number {span}", one, float)
    return _check(f"a {'' if empty else 'non-empty '}list of numbers {span}",
                  lambda v: isinstance(v, (list, tuple))
                  and (empty or len(v) > 0) and all(map(one, v)))


def _one_of(*options) -> Callable:
    return _check(f"one of {list(options)}", lambda v: v in options)


def _pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2


_NUMBER = _check("a number", _real, float)
_POSITIVE = _positive()
_NUMBER_OR_NULL = _check("a number or null", lambda v: v is None or _real(v))
_OBJECT = _check("a JSON object", lambda v: isinstance(v, dict))
_BOUNDS = _check("an array [u_lo, u_hi] of two numbers",
                 lambda v: _pair(v) and all(map(_real, v)))
_WINDOWS = _check("a list of [start, width] pairs of finite numbers",
                  lambda v: isinstance(v, (list, tuple))
                  and all(_pair(w) and all(map(_real, w)) for w in v))
_E_T = _check('"full" or ["lagged", D] with D >= 0', lambda v: v == "full"
              or _pair(v) and v[0] == "lagged" and _real(v[1]) and v[1] >= 0)

# Every config key read, (section, key) -> (default, check).  A default of
# ... marks a required key; a default of None is worked out at run time
# (from other settings or the grid) by the key's reader.  The keys of
# problem.params depend on the selector and are read by ``param``.
SETTINGS = {
    ("problem", "selector"): (..., _one_of(
        "example_3_4", "example_3_5", "linear_quadratic",
        "custom_polynomial", "zero")),
    ("problem", "params"): ({}, _OBJECT),
    ("problem", "delta"): (1.0, _NUMBER),
    ("problem", "rho"): (None, _NUMBER),
    ("problem", "lambda_avg"): (None, _NUMBER_OR_NULL),
    ("problem", "discount"): (None, _NUMBER),
    ("problem", "control_bounds"): ((0.0, 1.0), _BOUNDS),
    ("problem", "initial_segment"): (None, _OBJECT),
    ("problem.initial_segment", "kind"): ("constant",
                                          _one_of("constant", "linear")),
    ("problem.initial_segment", "value"): (..., _NUMBER),
    ("problem.initial_segment", "slope"): (0.0, _NUMBER),
    ("grid", "dt"): (..., _NUMBER),
    ("grid", "horizon"): (..., _NUMBER),
    ("mc", "n_paths"): (1000, _integer(1)),
    ("mc", "seed"): (0, _integer(0, 2 ** 64)),
    ("mc", "threads"): (1, _integer(1)),
    ("mc", "probe_count"): (20, _integer(1)),
    ("mc", "probe_span"): (0.8, _positive(1.0)),
    ("mc", "horizon_fractions"): ((0.25, 0.5, 1.0),
                                  _positive(1.0, many=True, empty=False)),
    ("mc", "bump_windows"): (None, _WINDOWS),
    ("mc", "bump_s"): ((1e-2, 1e-3), _positive(many=True)),
    ("mc", "e_t"): ("full", _E_T),
    ("mc", "basis_degree"): (2, _integer(0)),
    ("mc", "s"): (1e-3, _POSITIVE),
    ("solver", "mode"): ("deterministic",
                         _one_of("deterministic", "regression")),
    ("solver", "weight_lambda"): (None, _NUMBER_OR_NULL),
    ("solver", "picard_tol"): (1e-12, _NUMBER),
    ("solver", "picard_max_iter"): (60, _integer(1)),
    ("solver", "basis_degree"): (2, _integer(0)),
    ("control", "kind"): ("closed_form",
                          _one_of("closed_form", "constant", "file")),
    ("control", "p0"): (None, _NUMBER_OR_NULL),
    ("control", "value"): (0.0, _NUMBER),
    ("control", "path"): (..., _check("a string", lambda v: isinstance(v, str))),
    ("search", "T_search"): (80.0, _POSITIVE),
    ("search", "dt"): (1e-2, _POSITIVE),
    ("search", "tol"): (1e-6, _POSITIVE),
    ("search", "bracket_hi"): (4.0, _POSITIVE),
    ("search", "bracket_lo"): (1e-3, _POSITIVE),
}
_SECTIONS = tuple(dict.fromkeys(name for name, _ in SETTINGS))


def _section(section, name: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(
            f"config section {name!r} must be an object, got {section!r}")
    return section


def setting(section: dict, name: str, key: str):
    """``section[key]``, the key ``key`` of the config section ``name``,
    passed through its check in ``SETTINGS``, or its default when
    absent.  A section that is no object, a key the table does not know,
    a missing required key or a value its check refuses is a ConfigError
    naming the section or ``name.key``."""
    if (name, key) not in SETTINGS:
        raise ConfigError(f"{name} has no key {key!r}; its keys are "
                          + ", ".join(k for s, k in SETTINGS if s == name))
    default, check = SETTINGS[name, key]
    if key in _section(section, name):
        return check(f"{name}.{key}", section[key])
    if default is ...:
        raise ConfigError(f"config section {name!r} is missing key {key!r}")
    return default


def check_config(cfg: dict) -> dict:
    """Check every section and key of the config ``cfg`` against
    ``SETTINGS`` before anything runs: an unknown section or key, or a
    value its check refuses, is a ConfigError naming it.  The
    per-selector ``problem.params`` keys and the checks that need the
    grid are left to their readers.

    Returns the resolved settings: each key of the table as
    ``section.key`` with its checked value, or else its default;
    ``"default"`` stands for a default worked out at run time (such as
    the grid's bump windows) or a required key that is not given."""
    top = [name for name in _SECTIONS if "." not in name]
    for name in cfg:
        if name not in top:
            raise ConfigError(f"config has no section {name!r}; its "
                              f"sections are {', '.join(top)}")
    sections, resolved = {"": cfg}, {}
    for name in _SECTIONS:
        parent, _, last = name.rpartition(".")
        section = sections[name] = _section(sections[parent].get(last, {}),
                                            name)
        for key in section:
            resolved[f"{name}.{key}"] = setting(section, name, key)
    for (name, key), (default, _) in SETTINGS.items():
        resolved.setdefault(f"{name}.{key}", "default"
                            if default is None or default is ... else default)
    return resolved


def param(params: dict, key: str, default=None):
    """``params[key]`` of a ``problem.params`` section as a float, or
    ``default`` when absent or null; any other value that is no number
    is a ConfigError naming ``problem.params.key``."""
    value = params.get(key)
    return default if value is None else _NUMBER(f"problem.params.{key}", value)


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


def _segment_from_config(cfg: dict) -> Callable:
    kind, c = (setting(cfg, "problem.initial_segment", key)
               for key in ("kind", "value"))
    if kind == "constant":
        return constant_segment(c)
    # X0(s) = value + slope * s on [-delta, 0]
    slope = setting(cfg, "problem.initial_segment", "slope")
    return lambda s: c + slope * np.asarray(s, float)


def problem_rates(prob: dict) -> tuple:
    """(delta, rho, lambda_avg, discount) of a ``problem`` section.
    delta defaults to 1; rho falls back to params.rho, then to 0.1; the
    averaging decay lambda_avg and the discount fall back to rho."""
    delta, rho, lambda_avg, discount = (
        setting(prob, "problem", key)
        for key in ("delta", "rho", "lambda_avg", "discount"))
    if rho is None:
        rho = param(setting(prob, "problem", "params"), "rho", 0.1)
    return (delta, rho, rho if lambda_avg is None else float(lambda_avg),
            rho if discount is None else discount)


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

    selector = setting(prob, "problem", "selector")
    params = setting(prob, "problem", "params")
    delta, rho, lambda_avg, discount = problem_rates(prob)
    u_lo, u_hi = map(float, setting(prob, "problem", "control_bounds"))

    example = examples.example_params(raw_config)
    if selector == "example_3_4":
        coeffs = examples.coefficients_ex34(example)
    elif selector == "example_3_5":
        coeffs = examples.coefficients_ex35(example)
    elif selector == "linear_quadratic":
        coeffs = examples.coefficients_linear_quadratic(params, discount)
    elif selector == "custom_polynomial":
        coeffs = examples.coefficients_polynomial(params)
    else:
        refuse_unknown_params(params, ())
        coeffs = examples.coefficients_zero()

    x0 = 1.0 if example is None else example.X0
    segment = setting(prob, "problem", "initial_segment")
    segment = _segment_from_config({"value": x0} if segment is None
                                   else segment)
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
        grid = make_grid(delta, setting(grid_cfg, "grid", "dt"),
                         setting(grid_cfg, "grid", "horizon"))
        spec.validate_segment(grid)
    return spec


# ---------------------------------------------------------------------------
# Run settings and CSV output
# ---------------------------------------------------------------------------

def _mc_settings(mc: dict) -> tuple:
    """(n_paths, seed, threads) of an ``mc`` section, by default 1000, 0
    and 1: n_paths and threads at least 1, the seed a Philox key word in
    [0, 2**64)."""
    return tuple(setting(mc, "mc", key)
                 for key in ("n_paths", "seed", "threads"))


def _write_csv(path: str, header, rows) -> None:
    """Write ``rows`` (one sequence of numbers per row) under the column
    names ``header``, every value as %.17g, which round-trips each float.
    One % formats the whole file, with the row template repeated."""
    rows = np.asarray(rows, float).reshape(-1, len(header))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((",".join(["%.17g"] * len(header)) + "\n") * len(rows)
                 % tuple(rows.ravel().tolist()))
