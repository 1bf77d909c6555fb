"""Exception types shared across the toolkit."""


class DelayCtrlError(Exception):
    """Base class for all toolkit errors."""


class GridMismatch(DelayCtrlError):
    """Delay or horizon is not an integer multiple of the step size."""


class BadInterval(DelayCtrlError):
    """Control bounds are inverted (u_lo > u_hi)."""


class NonFiniteSegment(DelayCtrlError):
    """Initial segment evaluates to NaN/inf on the history grid."""


class NonFiniteState(DelayCtrlError):
    """State blew up (NaN/inf) during forward simulation.

    Attributes
    ----------
    step : grid index at which the first non-finite value appeared.
    block, lane : the first offending path's block and its lane inside
        that block (None when the failing run has no blocks).
    """

    def __init__(self, message, step=None, block=None, lane=None):
        super().__init__(message)
        self.step = step
        self.block = block
        self.lane = lane


class NonFiniteObjective(DelayCtrlError):
    """Objective estimate became NaN/inf."""


class NonFinite(DelayCtrlError):
    """Non-finite value in a pointwise evaluation (Hamiltonian etc.)."""


class BadWindow(DelayCtrlError):
    """Bump window [s, s+h] is not contained in [0, T]."""


class NoConvergence(DelayCtrlError):
    """Picard iteration did not reach the tolerance within max_iter.

    Carries the partial report so callers can still inspect/export it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BadWeight(DelayCtrlError):
    """Weighted-norm ratio >= 1 for 3 consecutive iterations: the
    exponential weight is too small for the driver's Lipschitz constant."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class AdjointMissing(DelayCtrlError):
    """A maximum-principle check was invoked without a solved adjoint."""


class DomainError(DelayCtrlError):
    """Closed-form formula evaluated outside its domain (e.g. x <= 0)."""


class DivergentIntegral(DelayCtrlError):
    """The discounted integral defining the optimal multiplier diverges."""


class NoSignChange(DelayCtrlError):
    """Bisection bracket for the wealth-positivity infimum was not found."""


class ConfigError(DelayCtrlError):
    """Malformed or inconsistent configuration document."""
