"""Picard solver for time-advanced backward equations: oracles, weight
rule, contraction, failure modes, and uniqueness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayctrl import make_grid
from delayctrl.absde import (
    AdvancedDriver,
    McContext,
    auto_weight,
    contraction_diagnostics,
    epsilon_rule,
    picard_solve,
    uniqueness_probe,
    weighted_distance,
)
from delayctrl.errors import BadWeight, NoConvergence


def advanced_ode_oracle(grid, c, g):
    """Backward oracle for dp = (c p(t+delta) + g) dt, p >= horizon = 0,
    integrated segment by segment with the solver's sign convention
    p(t) = -int_t^T [c p(s+delta) + g] ds via trapezoid steps."""
    n, m, dt = grid.n, grid.m, grid.dt
    p = np.zeros(n + 1 + m)

    def F(i):
        return c * p[i + m] + g

    for i in range(n - 1, -1, -1):
        p[i] = p[i + 1] - 0.5 * dt * (F(i) + F(i + 1))
    return p[: n + 1]


def make_driver(c, g, lipschitz=None):
    return AdvancedDriver(
        fn=lambda t, p, pa, ps, q, qa, qs, r, ra, rs: c * pa + g,
        lipschitz=abs(c) if lipschitz is None else lipschitz,
        n_marks=0)


class TestWeightRule:
    def test_epsilon_rule_formula(self):
        lam, delta = 2.0, 1.0
        eps = epsilon_rule(lam, delta)
        assert eps == pytest.approx(1.0 / (12.0 * (2.0 + np.exp(-lam * delta))))

    def test_auto_weight_monotone_in_lipschitz(self):
        assert auto_weight(2.0, 1.0) > auto_weight(0.5, 1.0)


class TestDeterministicSolve:
    def test_zero_driver_zero_solution(self):
        grid = make_grid(1.0, 0.01, 3.0)
        triple, report = picard_solve(make_driver(0.3, 0.0), grid)
        assert report.converged
        np.testing.assert_array_equal(triple.p_on_grid(), 0.0)
        # the fixed point is hit immediately: no ratio tail to speak of
        assert all(r <= 0.6 for r in report.ratios[1:])

    def test_forced_driver_matches_oracle(self):
        grid = make_grid(1.0, 0.01, 3.0)
        triple, report = picard_solve(make_driver(0.3, 1.0), grid)
        assert report.converged
        oracle = advanced_ode_oracle(grid, 0.3, 1.0)
        assert np.max(np.abs(triple.p_on_grid() - oracle)) < 1e-8

    def test_unknown_free_driver_is_pure_integral(self):
        """F independent of the unknown: p(t) = -(T - t) g exactly."""
        grid = make_grid(1.0, 0.01, 2.0)
        triple, _ = picard_solve(make_driver(0.0, 2.0), grid)
        expected = -(grid.horizon - grid.times) * 2.0
        np.testing.assert_allclose(triple.p_on_grid(), expected, atol=1e-12)

    def test_contraction_ratio_bounded(self):
        grid = make_grid(1.0, 0.01, 3.0)
        _, report = picard_solve(make_driver(0.3, 1.0), grid)
        assert all(r <= 0.6 for r in report.ratios[1:])

    def test_advanced_segment_slice_available(self):
        """Driver reading the forward segment: F = mean of p over
        [t, t+delta].  Just has to converge and stay finite."""
        grid = make_grid(1.0, 0.02, 2.0)
        drv = AdvancedDriver(
            fn=lambda t, p, pa, ps, q, qa, qs, r, ra, rs: 0.2 * np.mean(ps) + 1.0,
            lipschitz=0.2, n_marks=0)
        triple, report = picard_solve(drv, grid)
        assert report.converged
        assert np.all(np.isfinite(triple.p_on_grid()))

    def test_diagnostics_report(self):
        grid = make_grid(1.0, 0.01, 3.0)
        drv = make_driver(0.3, 1.0)
        _, report = picard_solve(drv, grid)
        diag = contraction_diagnostics(report, drv, grid.delta)
        assert diag["contracting"]
        assert diag["measured_ratio"] <= 0.6
        assert diag["epsilon"] > 0


class TestFailureModes:
    def test_no_convergence_raises_with_report(self):
        grid = make_grid(1.0, 0.01, 3.0)
        with pytest.raises(NoConvergence) as exc:
            picard_solve(make_driver(0.3, 1.0), grid, max_iter=2)
        assert exc.value.report is not None
        assert exc.value.report.iterations == 2

    def test_bad_weight_raises(self):
        grid = make_grid(1.0, 0.05, 3.0)
        # strong coupling through p(t) itself with a declared Lipschitz
        # constant far below the true one: the auto weight is too small
        # and the weighted ratios stall above 1 for several iterations
        drv = AdvancedDriver(
            fn=lambda t, p, pa, ps, q, qa, qs, r, ra, rs: 8.0 * p + 1.0,
            lipschitz=0.01, n_marks=0)
        with pytest.raises(BadWeight):
            picard_solve(drv, grid, max_iter=40)

    def test_advanced_coupling_converges_in_horizon_over_delay_sweeps(self):
        """Coupling only through p(t + delta) is a pure advance: exact
        information propagates backward one delay per sweep, so even a
        large coefficient converges in about horizon/delta iterations."""
        grid = make_grid(1.0, 0.05, 3.0)
        _, report = picard_solve(make_driver(8.0, 1.0), grid)
        assert report.converged
        assert report.iterations <= 6


class TestWeightedDistance:
    @given(lam=st.floats(0.0, 3.0), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_quadratic_homogeneity(self, lam, scale):
        # the distance is a normalized weighted *square* norm
        grid = make_grid(1.0, 0.05, 2.0)
        rng = np.random.default_rng(0)
        dp = rng.normal(size=grid.n + 1 + grid.m)
        d1, _, _ = weighted_distance(grid, lam, dp)
        d2, _, _ = weighted_distance(grid, lam, scale * dp)
        assert d2 == pytest.approx(scale ** 2 * d1, rel=1e-9)

    def test_unit_increment_past_exp_overflow(self):
        # lambda T = 1066: e^{lambda T} overflows a double
        grid = make_grid(1.0, 0.05, 10.0)
        unit = np.ones((4, grid.n + 1 + grid.m))
        with np.errstate(invalid="raise"):
            d, d_p, _ = weighted_distance(grid, 106.6, unit, ensemble=True)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert d_p == d

    def test_zero_iff_zero(self):
        grid = make_grid(1.0, 0.05, 2.0)
        d, _, _ = weighted_distance(grid, 1.0, np.zeros(grid.n + 1 + grid.m))
        assert d == 0.0

    def test_triangle_inequality_after_sqrt(self):
        grid = make_grid(1.0, 0.05, 2.0)
        rng = np.random.default_rng(1)
        a = rng.normal(size=grid.n + 1 + grid.m)
        b = rng.normal(size=grid.n + 1 + grid.m)
        da = np.sqrt(weighted_distance(grid, 1.0, a)[0])
        db = np.sqrt(weighted_distance(grid, 1.0, b)[0])
        dab = np.sqrt(weighted_distance(grid, 1.0, a + b)[0])
        assert dab <= da + db + 1e-12


class TestUniqueness:
    def test_distinct_initializations_agree(self):
        grid = make_grid(1.0, 0.01, 3.0)
        tol = 1e-12
        d = uniqueness_probe(make_driver(0.3, 1.0), grid,
                             p_init_a=np.zeros(grid.n + 1),
                             p_init_b=5.0 * np.ones(grid.n + 1), tol=tol)
        assert d <= 10 * tol


class TestRegressionMode:
    def test_matches_deterministic_on_degenerate_ensemble(self, ex34_det_spec,
                                                          ex34_params):
        """A constant (noise-free) ensemble must reproduce the
        deterministic sweep through the regression machinery."""
        from delayctrl.adjoint import solve_first_adjoint
        from delayctrl.examples import Example34Params, ex34_feedback, ex34_p0_star

        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        ctl = ex34_feedback(params, p0)
        grid = make_grid(1.0, 0.05, 3.0)
        det_triple, det_rep = solve_first_adjoint(
            ex34_det_spec, grid, ctl, solver_cfg={"picard_tol": 1e-10})
        from delayctrl.forward import simulate_ensemble

        res = simulate_ensemble(ex34_det_spec, grid, ctl, 8, 0, record=True)
        reg_triple, reg_rep = solve_first_adjoint(
            ex34_det_spec, grid, ctl, ensemble=res.records,
            solver_cfg={"picard_tol": 1e-10, "basis_degree": 1})
        assert det_rep.converged and reg_rep.converged
        # the two sweeps differ at the step-discretization level only
        np.testing.assert_allclose(reg_triple.p_on_grid(),
                                   det_triple.p_on_grid(), atol=2e-3)
