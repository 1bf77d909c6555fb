"""Picard solver for time-advanced backward equations: oracles, weight
rule, contraction, failure modes, and uniqueness."""

import contextlib
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from delayctrl import absde, make_grid
from delayctrl.absde import (
    AdvancedDriver,
    McContext,
    auto_weight,
    contraction_diagnostics,
    epsilon_rule,
    monomial_basis,
    picard_solve,
    uniqueness_probe,
    weighted_distance,
)
from delayctrl.adjoint import prepare_first_adjoint, solve_first_adjoint
from delayctrl.errors import (BadWeight, ConfigError, NoConvergence,
                             NonFiniteDriver)
from delayctrl.examples import (Example34Params, ex34_feedback, ex34_p0_star,
                                make_ex34_problem)
from delayctrl.forward import constant_control, simulate_ensemble

from conftest import make_coupled_jump_spec


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


def make_driver(grid, c, g, lipschitz=None):
    """F = c p(t + delta) + g on the grid's n+1 nodes."""
    m = grid.m
    return AdvancedDriver(
        fn=lambda p, q, r: c * p[..., m:] + g,
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
        triple, report = picard_solve(make_driver(grid, 0.3, 0.0), grid)
        assert report.converged
        np.testing.assert_array_equal(triple.p_on_grid(), 0.0)
        # the fixed point is hit immediately: no ratio tail to speak of
        assert all(r <= 0.6 for r in report.ratios[1:])

    def test_forced_driver_matches_oracle(self):
        grid = make_grid(1.0, 0.01, 3.0)
        triple, report = picard_solve(make_driver(grid, 0.3, 1.0), grid)
        assert report.converged
        oracle = advanced_ode_oracle(grid, 0.3, 1.0)
        assert np.max(np.abs(triple.p_on_grid() - oracle)) < 1e-8

    def test_unknown_free_driver_is_pure_integral(self):
        """F independent of the unknown: p(t) = -(T - t) g exactly."""
        grid = make_grid(1.0, 0.01, 2.0)
        triple, _ = picard_solve(make_driver(grid, 0.0, 2.0), grid)
        expected = -(grid.horizon - grid.times) * 2.0
        np.testing.assert_allclose(triple.p_on_grid(), expected, atol=1e-12)

    def test_contraction_ratio_bounded(self):
        grid = make_grid(1.0, 0.01, 3.0)
        _, report = picard_solve(make_driver(grid, 0.3, 1.0), grid)
        assert all(r <= 0.6 for r in report.ratios[1:])

    def test_advanced_segment_slice_available(self):
        """Driver reading the forward segment: F = mean of p over
        [t, t+delta].  Just has to converge and stay finite."""
        grid = make_grid(1.0, 0.02, 2.0)
        n, m = grid.n, grid.m
        drv = AdvancedDriver(
            fn=lambda p, q, r: 0.2 * np.mean(
                sliding_window_view(p, m + 1, axis=-1)[..., : n + 1, :],
                axis=-1) + 1.0,
            lipschitz=0.2, n_marks=0)
        triple, report = picard_solve(drv, grid)
        assert report.converged
        assert np.all(np.isfinite(triple.p_on_grid()))

    def test_diagnostics_report(self):
        grid = make_grid(1.0, 0.01, 3.0)
        drv = make_driver(grid, 0.3, 1.0)
        _, report = picard_solve(drv, grid)
        diag = contraction_diagnostics(report, drv, grid.delta)
        assert diag["contracting"]
        assert diag["measured_ratio"] <= 0.6
        assert diag["epsilon"] > 0


class TestFailureModes:
    @pytest.fixture(scope="class")
    def ex34_ensemble(self):
        params = Example34Params(sigma0=0.05)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, ex34_p0_star(params))
        grid = make_grid(1.0, 0.05, 3.0)
        S = simulate_ensemble(spec, grid, ctl, 32, 0, record=True).arrays
        return spec, grid, ctl, S

    def test_path_below_zero_stops_the_first_sweep(self, ex34_ensemble):
        """Ex 3.4's f_x = u^gamma x^(gamma-1) is NaN once a path's wealth
        is negative: the solve raises at its first sweep, naming the
        path and the node, instead of iterating on NaN to max_iter."""
        spec, grid, ctl, S = ex34_ensemble
        X = S["X"].copy()
        X[5, 40:] = -0.5
        with pytest.raises(NonFiniteDriver) as exc:
            solve_first_adjoint(spec, grid, ctl, ensemble={**S, "X": X})
        assert isinstance(exc.value, NoConvergence)
        assert (exc.value.path, exc.value.node) == (5, 40)
        assert exc.value.report.iterations == 0
        assert exc.value.report.mode == "regression"

    def test_driver_unread_at_the_horizon_node(self, ex34_ensemble):
        """The regression sweep never reads F at node n, so a NaN there
        stays harmless, as it always was."""
        spec, grid, ctl, S = ex34_ensemble
        X = S["X"].copy()
        X[5, grid.n] = -0.5
        _, report = solve_first_adjoint(spec, grid, ctl,
                                        ensemble={**S, "X": X})
        assert report.converged

    def test_deterministic_driver_names_the_node(self):
        grid = make_grid(1.0, 0.05, 3.0)
        n, m = grid.n, grid.m

        def fn(p, q, r):
            F = 1.0 + 0.1 * p[m: n + 1 + m]
            F[7] = np.inf if p[0] != 0.0 else 1.0
            return F

        with pytest.raises(NonFiniteDriver) as exc:
            picard_solve(AdvancedDriver(fn=fn, lipschitz=0.1), grid)
        assert (exc.value.path, exc.value.node) == (None, 7)
        assert exc.value.report.iterations == 1

    def test_no_convergence_raises_with_report(self):
        grid = make_grid(1.0, 0.01, 3.0)
        with pytest.raises(NoConvergence) as exc:
            picard_solve(make_driver(grid, 0.3, 1.0), grid, max_iter=2)
        assert exc.value.report is not None
        assert exc.value.report.iterations == 2

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_sweep_refused(self, max_iter):
        """max_iter below 1 would leave the report without a distance to
        state; the solve refuses it before its first sweep."""
        grid = make_grid(1.0, 0.05, 3.0)

        def fn(p, q, r):
            raise AssertionError("swept")

        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            picard_solve(AdvancedDriver(fn=fn, lipschitz=0.1), grid,
                         max_iter=max_iter)

    @pytest.mark.parametrize("key, value", [
        ("picard_max_iter", 0), ("picard_max_iter", 2.5),
        ("basis_degree", -1), ("basis_degree", True)])
    def test_solver_setting_refused(self, ex34_ensemble, key, value):
        spec, grid, ctl, S = ex34_ensemble
        for ensemble in (None, S):
            with pytest.raises(ConfigError, match=f"solver.{key} must be"):
                prepare_first_adjoint(spec, grid, ctl, ensemble=ensemble,
                                      solver_cfg={key: value})

    def test_bad_weight_raises(self):
        grid = make_grid(1.0, 0.05, 3.0)
        # strong coupling through p(t) itself with a declared Lipschitz
        # constant far below the true one: the auto weight is too small
        # and the weighted ratios stall above 1 for several iterations
        n = grid.n
        drv = AdvancedDriver(
            fn=lambda p, q, r: 8.0 * p[..., : n + 1] + 1.0,
            lipschitz=0.01, n_marks=0)
        with pytest.raises(BadWeight):
            picard_solve(drv, grid, max_iter=40)

    def test_advanced_coupling_converges_in_horizon_over_delay_sweeps(self):
        """Coupling only through p(t + delta) is a pure advance: exact
        information propagates backward one delay per sweep, so even a
        large coefficient converges in about horizon/delta iterations."""
        grid = make_grid(1.0, 0.05, 3.0)
        _, report = picard_solve(make_driver(grid, 8.0, 1.0), grid)
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
        d = uniqueness_probe(make_driver(grid, 0.3, 1.0), grid,
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


# ---------------------------------------------------------------------------
# The regression path against plain references: a column-stacked basis,
# a path-major sweep that builds a new design for every projection and
# reads float jump counts, and a Picard loop that takes the weighted and
# the unweighted distance in two separate calls.  The solver must give
# their bits.
# ---------------------------------------------------------------------------

def reference_basis(x, y, a, degree):
    cols = [np.ones_like(x)]
    for d in range(1, degree + 1):
        for i in range(d + 1):
            for j in range(d + 1 - i):
                cols.append(x ** i * y ** j * a ** (d - i - j))
    return np.column_stack(cols)


def reference_project(ctx, k, values):
    M = reference_basis(ctx.X[:, k], ctx.Y[:, k], ctx.A[:, k],
                        ctx.basis_degree)
    coef, *_ = np.linalg.lstsq(M, values, rcond=None)
    return M @ coef


def reference_sweep(driver, grid, ctx, p_prev, q_prev, r_prev):
    n, m, dt = grid.n, grid.m, grid.dt
    N = ctx.n_paths
    nm = max(driver.n_marks, 1)
    jumps = ctx.counts is not None and ctx.intensity > 0
    counts = None if ctx.counts is None else np.asarray(ctx.counts, float)
    F = np.asarray(driver.fn(p_prev, q_prev, r_prev), float)
    p = np.zeros((N, n + 1 + m))
    q = np.zeros((N, n + 1 + m))
    r = np.zeros((N, n + 1 + m, nm)) if jumps else r_prev
    for k in range(n - 1, -1, -1):
        p_next = p[:, k + 1]
        q[:, k] = reference_project(ctx, k, p_next * ctx.dB[:, k]) / dt
        if jumps:
            for j in range(min(nm, counts.shape[2])):
                lam_j = ctx.intensity * ctx.mark_probs[j] * dt
                centered = counts[:, k, j] - lam_j
                r[:, k, j] = (reference_project(ctx, k, p_next * centered)
                              / max(lam_j, 1e-300))
        p[:, k] = reference_project(ctx, k, p_next - dt * F[:, k])
    return p, q, r


def reference_distance(grid, lam, dp, dq=None, dr=None, ensemble=False):
    n, dt = grid.n, grid.dt
    trapz = np.full(n + 1, dt)
    trapz[0] *= 0.5
    trapz[-1] *= 0.5
    with np.errstate(over="ignore"):
        w = trapz * np.exp(lam * grid.times)
        total = np.sum(w)
    if not np.isfinite(total):
        w = trapz * np.exp(lam * grid.times - lam * grid.horizon)
        total = np.sum(w)
    w = w / total
    if ensemble:
        p2 = np.mean(dp[:, : n + 1] ** 2, axis=0)
    else:
        p2 = dp[: n + 1] ** 2
    d_p = float(w @ p2)
    d_qr = 0.0
    if dq is not None:
        q2 = np.mean(dq[:, : n + 1] ** 2, axis=0) if ensemble else dq[: n + 1] ** 2
        d_qr += float(w @ q2)
    if dr is not None:
        if ensemble:
            r2 = np.mean(np.sum(dr[:, : n + 1, :] ** 2, axis=-1), axis=0)
        else:
            r2 = np.sum(dr[: n + 1, :] ** 2, axis=-1)
        d_qr += float(w @ r2)
    return d_p + d_qr, d_p, d_qr


def reference_picard(driver, grid, ctx=None, tol=1e-12, max_iter=60):
    """(p, q, r, report fields) of the successive substitution; an r the
    sweep hands back unchanged differs by exact zeros, which add +0.0."""
    ensemble = ctx is not None
    lam = auto_weight(driver.lipschitz, grid.delta)
    lead = (ctx.n_paths,) if ensemble else ()
    p = np.zeros(lead + (grid.n + 1 + grid.m,))
    q = np.zeros_like(p)
    r = np.zeros(p.shape + (max(driver.n_marks, 1),))
    out = {"distances": [], "p_distances": [], "qr_distances": [],
           "ratios": [], "iterations": 0, "converged": False}
    for it in range(1, max_iter + 1):
        if ensemble:
            q_new, r_new = np.zeros_like(q), np.zeros_like(r)
            for _ in range(absde._INNER_MAX_ITER):
                inner_q, inner_r = q_new, r_new
                p_new, q_new, r_new = reference_sweep(
                    driver, grid, ctx, p, inner_q, inner_r)
                d_in, _, _ = reference_distance(
                    grid, lam, q_new - inner_q, dr=r_new - inner_r,
                    ensemble=True)
                if d_in <= tol:
                    break
        else:
            p_new, q_new, r_new = absde._det_sweep(driver, grid, p, q, r)
        diffs = (p_new - p, q_new - q, r_new - r)
        d, d_p, d_qr = reference_distance(grid, lam, *diffs, ensemble)
        d_flat, _, _ = reference_distance(grid, 0.0, *diffs, ensemble)
        out["distances"].append(d)
        out["p_distances"].append(d_p)
        out["qr_distances"].append(d_qr)
        if len(out["distances"]) >= 2 and out["distances"][-2] > 0:
            out["ratios"].append(d / out["distances"][-2])
        out["iterations"] = it
        p, q, r = p_new, q_new, r_new
        if max(d, d_flat) <= tol:
            out["converged"] = True
            break
    return p, q, r, out


def _regression_setting(jumps: bool, n_paths: int = 48):
    """(spec, grid, control, recorded ensemble) of Ex 3.4 or, with jumps,
    of the coupled jump problem (three marks)."""
    if jumps:
        spec, ctl = make_coupled_jump_spec(), constant_control(0.3)
    else:
        params = Example34Params(sigma0=0.05)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, ex34_p0_star(params))
    grid = make_grid(spec.delta, 0.05, 1.5)
    res = simulate_ensemble(spec, grid, ctl, n_paths, 7, record=True)
    return spec, grid, ctl, res


class TestRegressionPath:
    @pytest.fixture(scope="class")
    def ex34(self):
        return _regression_setting(jumps=False)

    @pytest.fixture(scope="class")
    def jumps(self):
        return _regression_setting(jumps=True)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_design_is_the_column_stacked_basis(self, ex34, degree):
        """Slice 0 is rank 1 (every path starts at the same state), Y is
        constant on the slices k <= m (it reads the initial segment) and
        the last slice has full rank."""
        spec, grid, ctl, res = ex34
        S = res.arrays
        ctx = McContext(S["X"], S["Y"], S["A"], S["dB"],
                        basis_degree=degree)
        assert np.all(S["Y"][:, : grid.m + 1] == 1.0)
        values = np.arange(ctx.n_paths, dtype=float)
        for k in (0, 1, grid.m, grid.m + 1, grid.n - 1):
            want = reference_basis(S["X"][:, k], S["Y"][:, k], S["A"][:, k],
                                   degree)
            got = ctx.design(k)
            assert got.flags.c_contiguous and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), k
            ctx.project(k, values)
            assert ctx._M.flags.c_contiguous
            assert ctx._M.tobytes() == want.tobytes(), k
        assert np.linalg.matrix_rank(ctx.design(0)) == 1
        assert np.linalg.matrix_rank(ctx.design(grid.n - 1)) == want.shape[1]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_basis_keeps_the_bits_of_special_values(self, degree):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                            -5e-324, 1e16, -1e16, 1e155, 1.5, -2.5])
        rng = np.random.default_rng(degree)
        x, y, a = (rng.permutation(special) for _ in range(3))
        with np.errstate(all="ignore"):
            want = reference_basis(x, y, a, degree)
            got = monomial_basis(x, y, a, degree)
        assert got.tobytes() == want.tobytes()

    def test_project_is_lstsq_on_the_basis(self, ex34):
        spec, grid, ctl, res = ex34
        S = res.arrays
        ctx = McContext(S["X"], S["Y"], S["A"], S["dB"])
        rng = np.random.default_rng(1)
        for k in (0, grid.m, grid.n - 1, grid.m):
            values = rng.normal(size=ctx.n_paths)
            got = ctx.project(k, values)
            assert got.tobytes() == reference_project(ctx, k, values).tobytes()

    def test_design_is_a_new_array(self, ex34):
        spec, grid, ctl, res = ex34
        S = res.arrays
        ctx = McContext(S["X"], S["Y"], S["A"], S["dB"])
        values = np.ones(ctx.n_paths)
        ctx.project(grid.m, values)
        design = ctx.design(grid.m)
        kept = design.copy()
        ctx.project(grid.n - 1, values)
        assert design.tobytes() == kept.tobytes()
        assert not np.shares_memory(design, ctx._M)

    @pytest.mark.parametrize("case", ["degree1", "degree3", "jumps"])
    @pytest.mark.parametrize("layout", ["time_major", "path_major"])
    def test_sweep_is_the_path_major_reference(self, ex34, jumps, case,
                                               layout):
        spec, grid, ctl, res = jumps if case == "jumps" else ex34
        degree = 3 if case == "degree3" else 1 + (case == "jumps")
        driver, options = prepare_first_adjoint(
            spec, grid, ctl, res.arrays, {"basis_degree": degree})
        ctx = options["mc_context"]
        if layout == "path_major":
            ctx = McContext(*(np.ascontiguousarray(v) for v in
                              (ctx.X, ctx.Y, ctx.A, ctx.dB)),
                            counts=ctx.counts, intensity=ctx.intensity,
                            mark_probs=ctx.mark_probs, basis_degree=degree)
        if case == "jumps":
            assert ctx.counts.dtype == np.int64 and ctx.counts.any()
        rng = np.random.default_rng(3)
        shape = (ctx.n_paths, grid.n + 1 + grid.m)
        prev = (rng.normal(size=shape), rng.normal(size=shape),
                rng.normal(size=shape + (max(driver.n_marks, 1),)))
        got = absde._reg_sweep(driver, grid, ctx, *prev)
        want = reference_sweep(driver, grid, ctx, *prev)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert (got[2] is prev[2]) == (case != "jumps")
        if case == "jumps":
            assert np.all(np.any(got[2][:, : grid.n] != 0.0, axis=(0, 1)))

    @pytest.mark.parametrize("case", ["deterministic", "regression", "jumps"])
    def test_picard_report_is_the_reference(self, ex34, jumps, case):
        spec, grid, ctl, res = jumps if case == "jumps" else ex34
        if case == "deterministic":
            driver, options = prepare_first_adjoint(spec, grid, ctl)
            ctx = None
        else:
            driver, options = prepare_first_adjoint(spec, grid, ctl,
                                                    res.records)
            ctx = options["mc_context"]
        triple, report = picard_solve(driver, grid, **options)
        p, q, r, want = reference_picard(driver, grid, ctx)
        got = report.as_dict()
        assert got.pop("mode") == ("deterministic" if ctx is None
                                   else "regression")
        assert got.pop("weight_lambda") == auto_weight(driver.lipschitz,
                                                       grid.delta)
        assert got == want and report.converged
        for g, w in ((triple.p, p), (triple.q, q), (triple.r, r)):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("case", ["ex34", "jumps", "paths64"])
    def test_worker_is_the_in_process_solve(self, ex34, jumps, case,
                                            monkeypatch):
        """The forked q/r worker makes each projection's lstsq call on the
        same bytes as the in-process solve, which a live thread forces:
        p, q, r and the report keep every bit."""
        monkeypatch.setattr(absde, "_blas_threads", lambda: 1)
        if case == "paths64":
            setting = _regression_setting(jumps=False, n_paths=64)
        else:
            setting = jumps if case == "jumps" else ex34
        spec, grid, ctl, res = setting
        driver, options = prepare_first_adjoint(spec, grid, ctl, res.records)
        forked, forked_report = picard_solve(driver, grid, **options)
        with _idle_thread():
            inline, inline_report = picard_solve(driver, grid, **options)
        assert forked_report.execution["worker"]
        assert not inline_report.execution["worker"]
        assert forked_report.as_dict() == inline_report.as_dict()
        for name in ("p", "q", "r"):
            assert (getattr(forked, name).tobytes()
                    == getattr(inline, name).tobytes()), name
        # one p projection per node here, q and r's in the worker
        sweeps = forked_report.execution["sweeps"]
        qr = 1 + (3 if case == "jumps" else 0)
        assert forked_report.execution["projections"] == {
            "main": sweeps * grid.n, "worker": sweeps * grid.n * qr}
        assert inline_report.execution["projections"] == {
            "main": sweeps * grid.n * (1 + qr), "worker": 0}


@contextlib.contextmanager
def _idle_thread():
    """A second live thread for the duration, so a solve stays in-process."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestQrWorker:
    """The regression solve's forked q/r worker ends with the solve, on
    every way out of it.  The solve forks only with a one-thread BLAS
    pool, which these tests stub."""

    @pytest.fixture(scope="class")
    def setting(self):
        spec, grid, ctl, res = _regression_setting(jumps=False, n_paths=32)
        return spec, grid, ctl, res.arrays

    @pytest.fixture(autouse=True)
    def one_thread_pool(self, monkeypatch):
        monkeypatch.setattr(absde, "_blas_threads", lambda: 1)

    @pytest.mark.parametrize("pool", [1, 2, None])
    def test_forks_only_with_a_one_thread_pool(self, setting, monkeypatch,
                                               pool):
        """Each process has its own BLAS pool, so a worker beside a pool
        of several threads would share the cores with it: the solve forks
        only when the bundled OpenBLAS reports one thread, and stays
        in-process when the pool cannot be asked (None)."""
        monkeypatch.setattr(absde, "_blas_threads", lambda: pool)
        spec, grid, ctl, S = setting
        _, report = solve_first_adjoint(spec, grid, ctl, ensemble=S)
        assert report.converged
        assert report.execution["worker"] == (pool == 1)

    def test_reaped_after_convergence(self, setting):
        spec, grid, ctl, S = setting
        _, report = solve_first_adjoint(spec, grid, ctl, ensemble=S)
        assert report.converged and report.execution["worker"]
        assert report.execution["worker_wait_s"] >= 0.0
        _no_child_left()

    def test_reaped_after_a_non_finite_driver(self, setting):
        spec, grid, ctl, S = setting
        X = S["X"].copy()
        X[5, 20:] = -0.5
        with pytest.raises(NonFiniteDriver) as exc:
            solve_first_adjoint(spec, grid, ctl, ensemble={**S, "X": X})
        assert exc.value.report.execution == {
            "worker": True, "sweeps": 0,
            "projections": {"main": 0, "worker": 0}, "worker_wait_s": 0.0}
        _no_child_left()

    def test_reaped_without_convergence(self, setting):
        spec, grid, ctl, S = setting
        with pytest.raises(NoConvergence) as exc:
            solve_first_adjoint(spec, grid, ctl, ensemble=S,
                                solver_cfg={"picard_max_iter": 1})
        execution = exc.value.report.execution
        assert execution["worker"] and execution["sweeps"] >= 1
        _no_child_left()

    def test_reaped_after_a_bad_weight(self, setting):
        spec, grid, ctl, S = setting
        n = grid.n
        ctx = McContext(S["X"], S["Y"], S["A"], S["dB"])
        drv = AdvancedDriver(fn=lambda p, q, r: 8.0 * p[..., : n + 1] + 1.0,
                             lipschitz=0.01, n_marks=0)
        with pytest.raises(BadWeight) as exc:
            picard_solve(drv, grid, ctx, max_iter=40)
        assert exc.value.report.execution["worker"]
        _no_child_left()

    def test_reaped_after_an_interrupt_mid_sweep(self, setting, monkeypatch):
        """KeyboardInterrupt in the solving process's p projection, with
        rows of the sweep already sent."""
        spec, grid, ctl, S = setting
        calls = []
        project = McContext.project

        def interrupted(self, k, values):
            calls.append(k)
            if len(calls) == 50:
                raise KeyboardInterrupt
            return project(self, k, values)

        monkeypatch.setattr(McContext, "project", interrupted)
        with pytest.raises(KeyboardInterrupt):
            solve_first_adjoint(spec, grid, ctl, ensemble=S)
        assert len(calls) == 50
        _no_child_left()

    def test_worker_exception_is_raised_with_its_type(self, setting,
                                                      monkeypatch):
        spec, grid, ctl, S = setting
        solver = os.getpid()
        fit = McContext._fit

        def failing_in_the_worker(self, k, values):
            if os.getpid() != solver and k == grid.n // 2:
                raise np.linalg.LinAlgError(f"worker failed at node {k}")
            return fit(self, k, values)

        monkeypatch.setattr(McContext, "_fit", failing_in_the_worker)
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"worker failed at node {grid.n // 2}"):
            solve_first_adjoint(spec, grid, ctl, ensemble=S)
        _no_child_left()

    def test_end_of_file_ends_the_worker(self, setting):
        """The worker leaves at end of file on its row pipe, as when the
        solving process dies mid-sweep."""
        spec, grid, ctl, S = setting
        ctx = McContext(S["X"], S["Y"], S["A"], S["dB"])
        worker = absde._QrWorker(ctx, grid, 1, None)
        for _ in range(3):
            worker.send(np.ones(ctx.n_paths))
        os.close(worker._rows)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(worker.pid, os.WNOHANG))[0] == 0:
            assert time.monotonic() < deadline, "worker still running"
            time.sleep(0.01)
        os.close(worker._back)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_in_process_without_fork(self, setting, monkeypatch):
        spec, grid, ctl, S = setting
        monkeypatch.delattr(os, "fork")
        _, report = solve_first_adjoint(spec, grid, ctl, ensemble=S)
        assert report.converged and not report.execution["worker"]

    def test_deterministic_solve_has_no_record(self, setting):
        spec, grid, ctl, _ = setting
        _, report = solve_first_adjoint(spec, grid, ctl)
        assert report.execution == {}


def test_fork_rule_reads_the_blas_pool():
    """The fork rule on the real pool, asked through the package's own
    probe: run with OPENBLAS_NUM_THREADS unset (a pool of several threads
    on a multi-core machine) and set to 1, a probe that cannot see the
    pool fails one of the two runs."""
    pool = absde._blas_threads()
    if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
        assert pool == 1
    spec, grid, ctl, res = _regression_setting(jumps=False, n_paths=32)
    _, report = solve_first_adjoint(spec, grid, ctl, ensemble=res.arrays)
    assert report.execution["worker"] == (pool == 1)
