"""Adjoint system solvers checked against closed forms."""

import numpy as np
import pytest

from delayctrl import make_grid
from delayctrl.adjoint import (
    SecondAdjointResult,
    p3_flatness,
    solve_first_adjoint,
    solve_second_adjoint,
)
from delayctrl.examples import (
    Example34Params,
    Example35Params,
    ex34_adjoint,
    ex34_feedback,
    ex34_p0_star,
    ex35_K,
    ex35_feedback,
    make_ex34_problem,
    make_ex35_problem,
)


def truncated_p0(params, T):
    """First-order condition constant for the horizon-T truncation of the
    consumption problem, from the same quadrature as the closed form."""
    return ex34_p0_star(params, quadrature_T=T)


class TestFirstAdjoint:
    def test_deterministic_solve_matches_truncated_closed_form(self):
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, p0)
        grid = make_grid(1.0, 0.01, 6.0)
        triple, report = solve_first_adjoint(spec, grid, ctl)
        assert report.converged
        # the finite-horizon adjoint is the closed form minus the tail
        # contribution: p_T(t) = p0 e^{-mu t} (1 - e^{-kappa (T - t)})
        # with kappa = mu + (rho - mu)/(1 - gamma)
        kappa = params.mu + (params.rho - params.mu) / (1.0 - params.gamma)
        t = grid.times
        expected = (p0 * np.exp(-params.mu * t)
                    * (1.0 - np.exp(-kappa * (grid.horizon - t))))
        err = np.max(np.abs(triple.p_on_grid() - expected))
        assert err < 5e-4 * p0

    def test_longer_horizon_approaches_closed_form(self):
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, p0)
        errs = []
        for T in (10.0, 40.0):
            grid = make_grid(1.0, 0.02, T)
            triple, _ = solve_first_adjoint(spec, grid, ctl)
            errs.append(abs(triple.p_on_grid()[0] - p0))
        assert errs[1] < errs[0]

    def test_q_vanishes_in_deterministic_mode(self):
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        grid = make_grid(1.0, 0.05, 4.0)
        triple, _ = solve_first_adjoint(spec, grid, ex34_feedback(params, p0))
        np.testing.assert_allclose(triple.q_on_grid(), 0.0, atol=1e-12)


class TestSecondAdjoint:
    def test_consumption_structure(self):
        """Solved on an extended horizon, p1 matches p1(0)e^{-mu t} on the
        report window while p2 and p3 stay identically zero (the
        coefficients do not touch y or a)."""
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, p0)
        grid = make_grid(1.0, 0.01, 60.0)
        res = solve_second_adjoint(spec, grid, ctl)
        keep = grid.times <= 10.0
        t = grid.times[keep]
        rel = np.abs(res.p1[keep] / (res.p1[0] * np.exp(-params.mu * t)) - 1.0)
        assert np.max(rel) < 1e-3
        assert np.max(np.abs(res.p2)) < 1e-10
        assert np.max(np.abs(res.p3)) < 1e-10

    @pytest.mark.slow  # runs the ex35_K search
    def test_recruitment_ratio_and_flatness(self):
        """Matched-alpha instance: p1/p2 = e^{-rho delta}/beta along the
        grid and p3 vanishes."""
        params = Example35Params(sigma0=0.0)
        K = ex35_K(params)
        spec = make_ex35_problem(params)
        ctl = ex35_feedback(params, K)
        grid = make_grid(1.0, 0.01, 40.0)
        res = solve_second_adjoint(spec, grid, ctl)
        keep = grid.times <= 10.0
        target = np.exp(-params.rho * params.delta) / params.beta
        ratio = res.p1[keep] / res.p2[keep]
        assert np.max(np.abs(ratio / target - 1.0)) < 1e-6
        flat, dev = p3_flatness(res.p3[keep], 1e-6)
        assert flat, f"p3 deviation {dev}"

    @pytest.mark.slow  # runs the ex35_K search
    def test_alpha_perturbation_breaks_flatness(self):
        params = Example35Params(sigma0=0.0)
        K = ex35_K(params)
        from delayctrl.examples import ex35_matched_alpha

        bad = Example35Params(alpha=1.1 * ex35_matched_alpha(params),
                              sigma0=0.0)
        spec = make_ex35_problem(bad)
        ctl = ex35_feedback(bad, K)
        grid = make_grid(1.0, 0.01, 40.0)
        res = solve_second_adjoint(spec, grid, ctl)
        keep = grid.times <= 10.0
        flat, dev = p3_flatness(res.p3[keep], 1e-6)
        assert not flat
        assert dev > 1e-3

    def test_reference_path_override(self):
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, p0)
        grid = make_grid(1.0, 0.05, 4.0)
        from delayctrl.forward import simulate_noiseless

        rec = simulate_noiseless(spec, grid, ctl)
        a = solve_second_adjoint(spec, grid, ctl)
        b = solve_second_adjoint(spec, grid, ctl,
                                 solver_cfg={"reference_path": rec})
        np.testing.assert_array_equal(a.p1, b.p1)

    def test_csv_export(self, tmp_path):
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        grid = make_grid(1.0, 0.1, 2.0)
        res = solve_second_adjoint(spec, grid, ex34_feedback(params, p0))
        out = tmp_path / "second.csv"
        res.to_csv(str(out))
        data = np.genfromtxt(out, delimiter=",", names=True)
        np.testing.assert_allclose(data["p1"], res.p1, rtol=1e-15)


class TestP3Flatness:
    def test_flat(self):
        flat, dev = p3_flatness(np.full(10, 1e-9), 1e-6)
        assert flat and dev == pytest.approx(1e-9)

    def test_not_flat(self):
        flat, dev = p3_flatness(np.array([0.0, 0.5]), 1e-6)
        assert not flat and dev == 0.5
