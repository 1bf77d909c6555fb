"""Adjoint system solvers checked against closed forms, and the first
adjoint's driver against a per-node reference."""

import dataclasses

import numpy as np
import pytest

from delayctrl import absde, adjoint, make_grid
from delayctrl.adjoint import (
    SecondAdjointResult,
    build_first_driver,
    p3_flatness,
    solve_first_adjoint,
    solve_second_adjoint,
)
from delayctrl.forward import (
    constant_control,
    simulate_ensemble,
    simulate_noiseless,
    stack_records,
)
from delayctrl.model import CoefficientSet, DiscreteMarks, JumpModel, ProblemSpec
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


def make_coupled_jump_spec():
    """Jump problem whose f, b, sigma and theta all depend on y and a, so
    every term of the first adjoint's driver is non-zero."""

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


def reference_driver(P, kernel, grid, p, q, r):
    """mu(t_k) = -(dH/dx(t_k) + dH/dy(t_k + delta)
    + sum_j kernel_j dH/da(t_{k+j})), node by node."""
    n, m = grid.n, grid.m
    w = P["mark_weights"]

    def dH(var, k):
        return (P[f"f_{var}"][..., k] + P[f"b_{var}"][..., k] * p[..., k]
                + P[f"sigma_{var}"][..., k] * q[..., k]
                + np.sum(P[f"theta_{var}"][..., k, :] * w * r[..., k, :],
                         axis=-1))

    out = np.empty(p.shape[:-1] + (n + 1,))
    for k in range(n + 1):
        ha = np.stack([dH("a", s) for s in range(k, k + m + 1)], axis=-1)
        out[..., k] = -(dH("x", k) + dH("y", k + m) + ha @ kernel)
    return out


class TestFirstDriver:
    @pytest.fixture(scope="class")
    def setting(self):
        spec = make_coupled_jump_spec()
        grid = make_grid(0.5, 0.05, 1.5)
        ctl = constant_control(0.3)
        res = simulate_ensemble(spec, grid, ctl, 16, 5, record=True)
        return spec, grid, ctl, res.records

    @staticmethod
    def iterate(grid, n_paths, n_marks, seed):
        rng = np.random.default_rng(seed)
        shape = (n_paths, grid.n + 1 + grid.m)
        return (rng.normal(size=shape), rng.normal(size=shape),
                rng.normal(size=shape + (n_marks,)))

    def test_matches_per_node_reference_on_jump_ensemble(self, setting):
        spec, grid, _, records = setting
        S = stack_records(records, ("X", "Y", "A", "u"))
        P = adjoint._coefficient_partial_arrays(spec, grid, S)
        for key in ("f_a", "b_a", "sigma_a", "theta_a", "theta_y"):
            assert np.any(P[key] != 0.0), key
        kernel = adjoint._segment_kernel(grid, spec.rho)
        p, q, r = self.iterate(grid, len(records), spec.jump.n_marks, 0)
        got = build_first_driver(spec, grid, S).fn(p, q, r)
        want = reference_driver(P, kernel, grid, p, q, r)
        assert got.shape == (len(records), grid.n + 1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_path_ensemble_is_bitwise_the_path(self, setting):
        spec, grid, ctl, _ = setting
        spec = dataclasses.replace(spec, jump=None)
        rec = simulate_noiseless(spec, grid, ctl)
        path = {"X": rec.X, "Y": rec.Y, "A": rec.A, "u": rec.u}
        stacked = {key: value[None, :] for key, value in path.items()}
        p, q, r = self.iterate(grid, 1, 1, 1)
        flat = build_first_driver(spec, grid, path).fn(p[0], q[0], r[0])
        paths = build_first_driver(spec, grid, stacked).fn(p, q, r)
        np.testing.assert_array_equal(paths[0], flat)

    def test_regression_solve_calls_driver_once_per_sweep(self, setting,
                                                          monkeypatch):
        spec, grid, ctl, records = setting
        counts = {"fn": 0, "sweeps": 0}
        build, sweep = adjoint.build_first_driver, absde._reg_sweep

        def counted_build(*args, **kwargs):
            driver = build(*args, **kwargs)

            def fn(p, q, r):
                counts["fn"] += 1
                return driver.fn(p, q, r)
            return dataclasses.replace(driver, fn=fn)

        def counted_sweep(*args, **kwargs):
            counts["sweeps"] += 1
            return sweep(*args, **kwargs)

        monkeypatch.setattr(adjoint, "build_first_driver", counted_build)
        monkeypatch.setattr(absde, "_reg_sweep", counted_sweep)
        _, report = solve_first_adjoint(spec, grid, ctl, ensemble=records)
        assert report.converged
        assert counts["sweeps"] >= report.iterations
        assert counts["fn"] == counts["sweeps"]


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
