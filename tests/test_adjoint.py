"""Adjoint system solvers checked against closed forms, and the first
adjoint's driver against a per-node reference."""

import dataclasses

import numpy as np
import pytest

from delayctrl import absde, adjoint, make_grid
from delayctrl.errors import NonFiniteDriver
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

from conftest import make_coupled_jump_spec


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


def full_h_partial(P, var, sl, p, q, r):
    """dH/d<var> with every term, zero or not: b p + f + sigma q (+ the
    jump term)."""
    val = P[f"b_{var}"][..., sl] * p
    val += P[f"f_{var}"][..., sl]
    val += P[f"sigma_{var}"][..., sl] * q
    key = f"theta_{var}"
    if key in P:
        val += np.sum(P[key][..., sl, :] * P["mark_weights"] * r, axis=-1)
    return val


def full_driver(spec, grid, path, p, q, r):
    """The driver with every term evaluated, the dH/dy term and the
    segment integral of dH/da included when their partials are zero:
    the reference that leaving out dead terms is checked against."""
    P = adjoint._coefficient_partial_arrays(spec, grid, path)
    kernel = adjoint._segment_kernel(grid, spec.rho)
    n, m = grid.n, grid.m
    now, adv = slice(0, n + 1), slice(m, n + 1 + m)
    F = full_h_partial(P, "x", now, p[..., now], q[..., now], r[..., now, :])
    F += full_h_partial(P, "y", adv, p[..., adv], q[..., adv], r[..., adv, :])
    F += adjoint._segment_integral(
        full_h_partial(P, "a", slice(None), p, q, r), kernel)
    return np.negative(F, out=F)


def with_zero_partials(spec, var):
    """``spec`` with every partial in ``var`` supplied as exactly zero,
    so the driver's ``var`` term is dead while the others stay live."""
    zero = lambda t, x, y, a, u, *z: np.zeros_like(np.asarray(x, float))
    partials = {name: dict(spec.coeffs.partials.get(name, {}), **{var: zero})
                for name in ("f", "b", "sigma", "theta")}
    return dataclasses.replace(
        spec, coeffs=dataclasses.replace(spec.coeffs, partials=partials))


EX35_K = 3.192668142  # ex35_K of the default search, not searched here


def driver_case(case):
    """(spec, grid, path, marks, bitwise, segment calls per fn) of a
    driver test case; ``bitwise`` says no term is dead, so F must equal
    the full evaluation byte for byte, and otherwise up to the sign of
    exact zeros."""
    grid = make_grid(1.0, 0.05, 3.0)
    if case.startswith("ex34"):
        params = Example34Params(sigma0=0.0 if case == "ex34_det" else 0.05)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, ex34_p0_star(params))
    elif case == "ex35":
        params = Example35Params(sigma0=0.0)
        spec = make_ex35_problem(params)
        ctl = ex35_feedback(params, EX35_K)
    else:
        spec = make_coupled_jump_spec()
        ctl = constant_control(0.3)
        if case != "jumps":
            spec = with_zero_partials(spec, case[-1])
    if case in ("ex34_det", "ex35"):
        rec = simulate_noiseless(spec, grid, ctl)
        path = {"X": rec.X, "Y": rec.Y, "A": rec.A, "u": rec.u}
    else:
        path = simulate_ensemble(spec, grid, ctl, 16, 5, record=True).arrays
    marks = spec.jump.n_marks if spec.has_jumps else 1
    live_a = case in ("ex35", "jumps", "jumps_dead_x", "jumps_dead_y")
    return spec, grid, path, marks, case in ("ex35", "jumps"), int(live_a)


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

    @pytest.mark.parametrize("case", ["ex34_reg", "ex34_det", "ex35", "jumps",
                                      "jumps_dead_x", "jumps_dead_y",
                                      "jumps_dead_a"])
    def test_dead_terms_are_left_out(self, case, monkeypatch):
        """Leaving out the terms whose partials are all zero gives the
        full evaluation's F (bitwise where no term is dead), and the
        segment integral runs only when a partial in a is non-zero."""
        spec, grid, path, marks, bitwise, segments = driver_case(case)
        p, q, r = self.iterate(grid, 16, marks, 3)
        if path["X"].ndim == 1:
            p, q, r = p[0], q[0], r[0]
        want = full_driver(spec, grid, path, p, q, r)
        calls = []
        segment_integral = adjoint._segment_integral

        def spy(*args):
            calls.append(1)
            return segment_integral(*args)

        driver = build_first_driver(spec, grid, path)
        monkeypatch.setattr(adjoint, "_segment_integral", spy)
        got = driver.fn(p, q, r)
        assert len(calls) == segments
        assert np.all(np.isfinite(got))
        if bitwise:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("key, node", [("b_y", 27), ("sigma_y", 40),
                                           ("f_a", 27), ("b_a", 5)])
    def test_nan_partial_keeps_its_term_live(self, key, node, monkeypatch):
        """A y- or a-partial that is zero but for one NaN is not dead: the
        solve raises NonFiniteDriver at the first path and grid node
        whose driver reads it."""
        params = Example34Params(sigma0=0.05)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, ex34_p0_star(params))
        grid = make_grid(1.0, 0.05, 3.0)
        S = simulate_ensemble(spec, grid, ctl, 16, 5, record=True).arrays
        evaluate = adjoint._coefficient_partial_arrays
        bad_path = 11

        def with_nan(*args):
            P = evaluate(*args)
            P[key] = np.zeros((16,) + P[key].shape[-1:])
            P[key][bad_path, node] = np.nan
            return P

        monkeypatch.setattr(adjoint, "_coefficient_partial_arrays", with_nan)
        with pytest.raises(NonFiniteDriver) as err:
            solve_first_adjoint(spec, grid, ctl, ensemble=S)
        # dH/dy(t + delta) reads padded node k + m at grid node k; the
        # segment integral of dH/da reads nodes k..k+m
        first = node - grid.m if key.endswith("_y") else max(node - grid.m, 0)
        assert (err.value.path, err.value.node) == (bad_path, first)

    @pytest.mark.parametrize("case", ["ex34_reg", "ex34_det"])
    def test_iterate_read_only_by_dead_terms_is_not_read(self, case):
        """NaN in p and q past the horizon, where on Ex 3.4 only the dead
        dH/dy and dH/da terms read them (q everywhere in deterministic
        mode, where sigma_x is zero too), leaves the driver finite and
        raises nothing; the full evaluation turns NaN."""
        spec, grid, path, marks, _, _ = driver_case(case)
        n = grid.n
        p, q, r = self.iterate(grid, 16, marks, 4)
        if path["X"].ndim == 1:
            p, q, r = p[0], q[0], r[0]
        driver = build_first_driver(spec, grid, path)
        clean = driver.fn(p, q, r)
        p[..., n + 1:] = np.nan
        q[..., 0 if case == "ex34_det" else n + 1:] = np.nan
        got = absde._driver_values(driver, grid, n + 1, p, q, r)
        assert got.tobytes() == clean.tobytes()
        assert not np.all(np.isfinite(full_driver(spec, grid, path, p, q, r)))

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


def with_linear_partials(spec):
    """make_coupled_jump_spec with the analytic partials of its linear b,
    sigma and theta supplied: constants, so each is one time row of the
    partial arrays on a stacked path, while f's stay per path."""
    const = lambda c: (lambda t, x, y, a, u, *z: c)
    partials = {
        "b": {"x": const(0.05), "y": const(0.02), "a": const(-0.03)},
        "sigma": {"x": const(0.2), "y": const(0.0), "a": const(0.01)},
        "theta": {"x": lambda t, x, y, a, u, z: z,
                  "y": const(0.01),
                  "a": lambda t, x, y, a, u, z: 0.05 * z},
    }
    return dataclasses.replace(
        spec, coeffs=dataclasses.replace(spec.coeffs, partials=partials))


class TestWorkingSet:
    """The regression solve's memory cuts keep every bit: compact
    partials, the in-place driver, the one-pass segment integral and the
    shared Picard buffers."""

    @pytest.mark.parametrize("m", [0, 20, 100])
    @pytest.mark.parametrize("lead", [(), (1,), (7,)])
    def test_segment_integral_is_the_per_row_correlation(self, m, lead):
        rng = np.random.default_rng(m + len(lead))
        ha = rng.normal(size=lead + (3 * m + 11,))
        kernel = adjoint._segment_kernel(make_grid(1.0, 0.01, 5.0), 0.1)[: m + 1]
        rows = ha.reshape(-1, ha.shape[-1])
        want = np.array([np.correlate(row, kernel, mode="valid")
                         for row in rows]).reshape(lead + (-1,))
        got = adjoint._segment_integral(ha, kernel)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_compact_rows_compare_bits(self):
        rows = np.zeros((3, 4))
        assert adjoint._compact_rows(rows).shape == (4,)
        rows[1, 2] = -0.0
        assert adjoint._compact_rows(rows).shape == (3, 4)
        nan = np.full((2, 3), np.nan)
        assert adjoint._compact_rows(nan).shape == (3,)
        nan[1, 0] = -np.nan
        assert adjoint._compact_rows(nan).shape == (2, 3)

    @pytest.mark.parametrize("problem", ["ex34", "jumps", "jumps_fd"])
    def test_compact_partials_give_the_full_array_driver(self, problem,
                                                         monkeypatch):
        if problem == "ex34":
            params = Example34Params(sigma0=0.05)
            spec = make_ex34_problem(params, u_hi=50.0)
            ctl = ex34_feedback(params, ex34_p0_star(params))
        else:
            spec = make_coupled_jump_spec()
            if problem == "jumps":
                spec = with_linear_partials(spec)
            ctl = constant_control(0.3)
        grid = make_grid(spec.delta, 0.05, 1.5)
        S = simulate_ensemble(spec, grid, ctl, 16, 5, record=True).arrays
        compact = adjoint._coefficient_partial_arrays(spec, grid, S)
        rows = {key for key, v in compact.items() if key != "mark_weights"
                and v.ndim == 1 + key.startswith("theta")}
        if problem != "jumps_fd":
            assert rows and len(rows) < len(compact) - spec.has_jumps
        full = {key: np.broadcast_to(v, (16,) + v.shape).copy()
                if key in rows else v for key, v in compact.items()}
        n_marks = spec.jump.n_marks if spec.has_jumps else 1
        p, q, r = TestFirstDriver.iterate(grid, 16, n_marks, 2)
        got = build_first_driver(spec, grid, S)
        monkeypatch.setattr(adjoint, "_coefficient_partial_arrays",
                            lambda *args: full)
        want = build_first_driver(spec, grid, S)
        assert got.lipschitz == want.lipschitz
        assert got.fn(p, q, r).tobytes() == want.fn(p, q, r).tobytes()

    @pytest.mark.parametrize("jumps", [False, True])
    def test_records_and_arrays_give_the_same_triple(self, jumps):
        if jumps:
            spec, ctl = make_coupled_jump_spec(), constant_control(0.3)
        else:
            params = Example34Params(sigma0=0.05)
            spec = make_ex34_problem(params, u_hi=50.0)
            ctl = ex34_feedback(params, ex34_p0_star(params))
        grid = make_grid(spec.delta, 0.05, 1.5)
        res = simulate_ensemble(spec, grid, ctl, 64, 3, record=True)
        a, report_a = solve_first_adjoint(spec, grid, ctl, ensemble=res.records)
        b, report_b = solve_first_adjoint(spec, grid, ctl, ensemble=res.arrays)
        assert report_a.as_dict() == report_b.as_dict()
        for key in ("p", "q", "r"):
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes()
        assert np.any(a.r != 0.0) == jumps

    def test_traced_peak(self):
        """A regression solve of Ex 3.4 (512 paths, dt 0.05, T 5) peaks
        at about 2.7 times the bytes of its recorded ensemble (X, Y, A, u,
        dB) by tracemalloc: the two per-path partials of Ex 3.4 (f_x and
        b_x), the solve's zero q and r, about six (N x nodes) working
        arrays and one slice's design (N x 10).  A design cache of every
        slice (2.0) took it to 4.6; nine full partials, per-sweep zero r
        arrays and Picard differences computed twice on top of that to
        7.6."""
        import tracemalloc

        params = Example34Params(sigma0=0.05)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, ex34_p0_star(params))
        grid = make_grid(1.0, 0.05, 5.0)
        n_paths = 512
        S = simulate_ensemble(spec, grid, ctl, n_paths, 3, record=True).arrays
        one = 8 * n_paths * (4 * (grid.n + 1) + grid.n)
        tracemalloc.start()
        try:
            solve_first_adjoint(spec, grid, ctl, ensemble=S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * one, f"peak {peak / one:.3f}x one ensemble"


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


class TestCsvWriters:
    """The adjoint CSV writers format the whole file with one %, byte for
    byte what formatting each value with format(v, ".17g") writes."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16,
               -1e16, 0.1, -1.0 / 3.0, 123456789.0]

    @staticmethod
    def per_value(cols, rows):
        lines = [",".join(cols)]
        lines += [",".join(format(v, ".17g") for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    def values(self, shape, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=shape).ravel()
        v[: len(self.SPECIAL)] = self.SPECIAL
        return rng.permutation(v).reshape(shape)

    @pytest.mark.parametrize("marks", [1, 3])
    def test_first_adjoint_csv(self, tmp_path, marks):
        grid = make_grid(1.0, 0.1, 2.0)
        nodes, padded = grid.n + 1, grid.n + 1 + grid.m
        triple = absde.AdjointTriple(
            grid=grid, p=self.values(padded, 0), q=self.values(padded, 1),
            r=self.values((padded, marks), 2))
        path = tmp_path / "first.csv"
        triple.to_csv(str(path))
        cols = ["t", "p", "q"] + [f"r_{j}" for j in range(marks)]
        rows = [[grid.times[k], triple.p[k], triple.q[k], *triple.r[k]]
                for k in range(nodes)]
        assert path.read_bytes() == self.per_value(cols, rows).encode()

    @pytest.mark.parametrize("marks", [None, 1, 3])
    def test_second_adjoint_csv(self, tmp_path, marks):
        grid = make_grid(1.0, 0.1, 2.0)
        nodes = grid.n + 1
        p1, p2, p3, q1, q2 = (self.values(nodes, s) for s in range(5))
        r = self.values(nodes if marks is None else (nodes, marks), 5)
        res = SecondAdjointResult(grid=grid, p1=p1, p2=p2, p3=p3, q1=q1,
                                  q2=q2, r=r)
        path = tmp_path / "second.csv"
        res.to_csv(str(path))
        nm = 1 if marks is None else marks
        cols = ["t", "p1", "p2", "p3", "q1", "q2"] + [f"r_{j}" for j in range(nm)]
        rows = [[grid.times[k], p1[k], p2[k], p3[k], q1[k], q2[k],
                 *(r[k] if r.ndim == 2 else [r[k]])] for k in range(nodes)]
        assert path.read_bytes() == self.per_value(cols, rows).encode()


class TestP3Flatness:
    def test_flat(self):
        flat, dev = p3_flatness(np.full(10, 1e-9), 1e-6)
        assert flat and dev == pytest.approx(1e-9)

    def test_not_flat(self):
        flat, dev = p3_flatness(np.array([0.0, 0.5]), 1e-6)
        assert not flat and dev == 0.5
