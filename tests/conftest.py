"""Shared fixtures: small problem instances reused across test modules,
and guards against threads left running and child processes left
behind."""

import os
import threading

import numpy as np
import pytest

from delayctrl import build_problem, make_grid
from delayctrl.examples import (
    Example34Params,
    Example35Params,
    ex34_feedback,
    ex34_p0_star,
    make_ex34_problem,
    make_ex35_problem,
)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a new live thread behind, such as an engine
    noise producer or group worker that was never shut down."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"live threads left behind: {leaked}"


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process behind, running or not
    reaped, such as a regression solve's q/r worker."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "running" if pid == 0 else f"pid {pid} exited, not reaped"
    raise AssertionError(f"child process left behind ({state})")


@pytest.fixture(scope="session")
def ex34_params():
    return Example34Params(sigma0=0.05)


@pytest.fixture(scope="session")
def ex34_det_params():
    return Example34Params(sigma0=0.0)


@pytest.fixture(scope="session")
def ex34_spec(ex34_params):
    return make_ex34_problem(ex34_params, delta=1.0, u_hi=50.0)


@pytest.fixture(scope="session")
def ex34_det_spec(ex34_det_params):
    return make_ex34_problem(ex34_det_params, delta=1.0, u_hi=50.0)


@pytest.fixture(scope="session")
def ex34_control(ex34_params):
    return ex34_feedback(ex34_params, ex34_p0_star(ex34_params))


@pytest.fixture(scope="session")
def ex35_params():
    return Example35Params(sigma0=0.0)


@pytest.fixture(scope="session")
def ex35_spec(ex35_params):
    return make_ex35_problem(ex35_params)


@pytest.fixture(scope="session")
def short_grid():
    return make_grid(1.0, 0.05, 3.0)


def make_jump_spec(intensity: float = 0.5):
    """Geometric jump-diffusion dX = 0.05 X dt + 0.2 X dB + X z dN with
    discrete marks, constructed programmatically (theta is a callback,
    not part of the config schema)."""
    from delayctrl.model import (CoefficientSet, DiscreteMarks, JumpModel,
                                 ProblemSpec)

    def b(t, x, y, a, u):
        return 0.05 * np.asarray(x, float)

    def sigma(t, x, y, a, u):
        return 0.2 * np.asarray(x, float)

    def theta(t, x, y, a, u, z):
        return np.asarray(x, float) * z

    def f(t, x, y, a, u):
        return np.zeros_like(np.asarray(x, float))

    coeffs = CoefficientSet(b=b, sigma=sigma, theta=theta, f=f, partials={})
    jump = JumpModel(intensity=intensity,
                     marks=DiscreteMarks(values=np.array([-0.1, 0.2]),
                                         probs=np.array([0.5, 0.5])))
    return ProblemSpec(
        delta=0.5, rho=0.1, lambda_avg=0.1, discount=0.1, coeffs=coeffs,
        control_lo=0.0, control_hi=1.0,
        initial_segment=lambda s: np.full_like(np.asarray(s, float), 1.0),
        jump=jump)


def make_coupled_jump_spec():
    """Jump problem whose f, b, sigma and theta all depend on y and a, so
    every term of the first adjoint's driver is non-zero."""
    from delayctrl.model import (CoefficientSet, DiscreteMarks, JumpModel,
                                 ProblemSpec)

    def b(t, x, y, a, u):
        return 0.05 * x + 0.02 * y - 0.03 * a

    def sigma(t, x, y, a, u):
        return 0.2 * x + 0.01 * a

    def theta(t, x, y, a, u, z):
        return x * z + 0.05 * a * z + 0.01 * y

    def f(t, x, y, a, u):
        return np.log1p(np.abs(u)) + 0.1 * a - 0.01 * x * x

    jump = JumpModel(intensity=0.5,
                     marks=DiscreteMarks(values=np.array([-0.1, 0.2, 0.05]),
                                         probs=np.array([0.3, 0.5, 0.2])))
    return ProblemSpec(
        delta=0.5, rho=0.1, lambda_avg=0.1, discount=0.1,
        coeffs=CoefficientSet(b=b, sigma=sigma, theta=theta, f=f),
        control_lo=0.0, control_hi=1.0,
        initial_segment=lambda s: np.full_like(np.asarray(s, float), 1.0),
        jump=jump)


@pytest.fixture(scope="session")
def jump_spec():
    return make_jump_spec()
