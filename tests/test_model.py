"""Grid construction, configuration parsing, and coefficient plumbing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayctrl import build_problem, make_grid
from delayctrl.errors import BadInterval, ConfigError, GridMismatch
from delayctrl.forward import constant_control, simulate_noiseless
from delayctrl.hamiltonian import nu_theta_r
from delayctrl.model import (
    DiscreteMarks,
    JumpModel,
    finite_difference_partial,
)

from conftest import make_jump_spec

BASE_CONFIG = {
    "problem": {
        "selector": "linear_quadratic",
        "params": {},
        "delta": 1.0,
        "rho": 0.1,
        "lambda_avg": 0.1,
        "discount": 0.1,
        "control_bounds": [0.0, 1.0],
        "initial_segment": {"kind": "constant", "value": 1.0},
    },
    "grid": {"dt": 0.1, "horizon": 2.0},
}


def _cfg(**overrides):
    import copy

    cfg = copy.deepcopy(BASE_CONFIG)
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = cfg
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = value
    return cfg


class TestMakeGrid:
    def test_counts(self):
        grid = make_grid(1.0, 0.1, 2.0)
        assert grid.m == 10
        assert grid.n == 20
        assert grid.delta == pytest.approx(1.0)

    def test_times(self):
        grid = make_grid(0.5, 0.25, 1.0)
        np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        hist = grid.history_times()
        assert hist[-1] == pytest.approx(0.0)
        assert hist[0] == pytest.approx(-0.5)

    def test_delay_not_multiple(self):
        with pytest.raises(GridMismatch):
            make_grid(1.0, 0.3, 3.0)

    def test_horizon_not_multiple(self):
        with pytest.raises(GridMismatch):
            make_grid(1.0, 0.5, 3.3)

    @given(m=st.integers(1, 200), extra=st.integers(0, 400),
           dt=st.sampled_from([0.001, 0.01, 0.025, 0.05, 0.1, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_integer_multiples_always_accepted(self, m, extra, dt):
        n = m + extra
        grid = make_grid(m * dt, dt, n * dt)
        assert grid.m == m
        assert grid.n == n
        assert len(grid.times) == n + 1


class TestBuildProblem:
    def test_roundtrip(self):
        spec = build_problem(_cfg())
        assert spec.delta == 1.0
        assert spec.control_lo == 0.0
        assert spec.control_hi == 1.0

    def test_missing_problem_section(self):
        with pytest.raises(ConfigError):
            build_problem({"grid": {"dt": 0.1, "horizon": 1.0}})

    def test_unknown_selector(self):
        with pytest.raises(ConfigError):
            build_problem(_cfg(**{"problem.selector": "nope"}))

    def test_inverted_bounds(self):
        with pytest.raises(BadInterval):
            build_problem(_cfg(**{"problem.control_bounds": [1.0, 0.0]}))

    def test_grid_mismatch_caught_early(self):
        with pytest.raises(GridMismatch):
            build_problem(_cfg(**{"grid.dt": 0.3}))

    def test_linear_segment(self):
        spec = build_problem(_cfg(**{
            "problem.initial_segment": {"kind": "linear", "value": 2.0,
                                        "slope": 0.5}}))
        assert spec.initial_segment(0.0) == pytest.approx(2.0)
        assert spec.initial_segment(-1.0) == pytest.approx(1.5)

    def test_unknown_segment_kind(self):
        with pytest.raises(ConfigError):
            build_problem(_cfg(**{
                "problem.initial_segment": {"kind": "spline", "value": 1.0}}))

    def test_jump_section(self):
        """No selector supplies theta, so a config jump section could
        only build a jump model that acts on nothing: it is refused."""
        cfg = _cfg()
        cfg["jump"] = {"intensity": 0.5,
                       "marks": {"kind": "discrete", "values": [1.0, -1.0],
                                 "probs": [0.5, 0.5]}}
        with pytest.raises(ConfigError, match="jump"):
            build_problem(cfg)

    @pytest.mark.parametrize("selector, key", [
        ("example_3_4", "gama"), ("example_3_4", "beta"),
        ("example_3_5", "gama"), ("linear_quadratic", "kxx"),
        ("custom_polynomial", "g"), ("zero", "kx")])
    def test_unknown_params_key_refused(self, selector, key):
        """A key in problem.params that the selector does not read, such
        as a misspelt one, is a ConfigError naming it, not a silent run
        of the default."""
        cfg = _cfg(**{"problem.selector": selector,
                      "problem.params": {key: 0.3}})
        with pytest.raises(ConfigError, match=repr(key)):
            build_problem(cfg)

    @pytest.mark.parametrize("selector, params", [
        ("linear_quadratic", dict.fromkeys(
            ["kx", "ky", "ka", "ku", "s0", "sx", "cx", "cu", "cl",
             "discount"], 0.1)),
        ("custom_polynomial", {"b": [[0.1, 1, 0, 0, 0]], "sigma": [],
                               "f": [], "f_discount": 0.1}),
        ("zero", {})])
    def test_every_read_params_key_accepted(self, selector, params):
        """Each key a selector reads is accepted, and so is params.rho,
        the fallback of problem.rho."""
        cfg = _cfg(**{"problem.selector": selector,
                      "problem.params": {**params, "rho": 0.2}})
        del cfg["problem"]["rho"]
        assert build_problem(cfg).rho == 0.2

    def test_determinism(self):
        a = build_problem(_cfg())
        b = build_problem(_cfg())
        assert a.coeffs.b(0.0, 1.0, 2.0, 3.0, 0.5) == \
            b.coeffs.b(0.0, 1.0, 2.0, 3.0, 0.5)


class TestMarks:
    def test_discrete_moments(self):
        marks = DiscreteMarks(values=np.array([-0.5, 1.0]),
                              probs=np.array([0.4, 0.6]))
        m1, m2 = marks.moments()
        assert m1 == pytest.approx(0.4)
        assert m2 == pytest.approx(0.4 * 0.25 + 0.6 * 1.0)

    def test_discrete_probs_must_sum_to_one(self):
        with pytest.raises(Exception):
            DiscreteMarks(values=np.array([1.0]), probs=np.array([0.5]))

    def test_jump_model_requires_discrete_marks(self):
        with pytest.raises(ConfigError):
            JumpModel(intensity=1.0, marks=(np.array([1.0]), np.array([1.0])))

    def test_nu_integral_scales_with_intensity(self):
        marks = DiscreteMarks(values=np.array([2.0]), probs=np.array([1.0]))
        jm = JumpModel(intensity=1.5, marks=marks)
        assert jm.nu_integral(lambda z: z ** 2) == pytest.approx(6.0)


class TestHasJumps:
    def test_predicate(self, ex34_spec):
        spec = make_jump_spec(0.5)
        assert spec.has_jumps
        assert not ex34_spec.has_jumps
        no_theta = dataclasses.replace(
            spec, coeffs=dataclasses.replace(spec.coeffs, theta=None))
        assert not no_theta.has_jumps
        assert not make_jump_spec(0.0).has_jumps

    def test_zero_intensity_runs_noiseless(self):
        spec = make_jump_spec(0.0)
        rec = simulate_noiseless(spec, make_grid(0.5, 0.05, 1.0),
                                 constant_control(0.0))
        assert np.all(np.isfinite(rec.X))
        assert nu_theta_r(spec, 0.0, 1.0, 1.0, 1.0, 0.0, lambda z: z) == 0.0


class TestPartials:
    def test_analytic_partial_preferred(self, ex34_spec):
        fb_u = ex34_spec.coeffs.partial("b", "u")
        assert fb_u(0.0, 2.0, 0.0, 0.0, 0.1) == pytest.approx(-2.0)

    def test_fd_fallback_matches_analytic(self):
        fn = lambda t, x, y, a, u: x ** 3 + 2.0 * u * x
        d = finite_difference_partial(fn, "x")
        assert d(0.0, 1.5, 0.0, 0.0, 0.2) == pytest.approx(
            3 * 1.5 ** 2 + 0.4, rel=1e-6)

    @given(x=st.floats(-3, 3), u=st.floats(0.01, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_fd_partial_property(self, x, u):
        fn = lambda t, x, y, a, u: np.sin(x) * u
        d = finite_difference_partial(fn, "x")
        assert d(0.0, x, 0.0, 0.0, u) == pytest.approx(np.cos(x) * u,
                                                       rel=1e-5, abs=1e-7)
