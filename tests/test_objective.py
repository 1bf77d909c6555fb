"""Objective estimation: quadrature oracles, tail bounds, CRN pairing,
domain-exit truncation."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from delayctrl import make_grid
from delayctrl.examples import (
    Example34Params,
    ex34_feedback,
    ex34_objective,
    ex34_p0_star,
    make_ex34_problem,
)
from delayctrl.forward import (
    StepAccumulator,
    constant_control,
    scale_control,
    simulate_ensemble,
)
from delayctrl.model import CoefficientSet, ProblemSpec
from delayctrl.objective import (
    RunningRewardAccumulator,
    compare_controls,
    estimate_J,
)


class TestDeterministicOracle:
    def test_truncated_value_matches_quadrature(self):
        """sigma = 0: J_T = int_0^T e^{-rho t} c(t)^gamma / gamma dt with
        c(t) the closed-form consumption, evaluated by scipy quadrature."""
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        grid = make_grid(1.0, 0.01, 10.0)
        est = estimate_J(spec, grid, ex34_feedback(params, p0), 2, 0)

        from delayctrl.examples import ex34_control

        def integrand(t):
            # c(t) = u(t, x) x, the same for every x > 0
            return (np.exp(-params.rho * t)
                    * ex34_control(params, t, 1.0, p0) ** params.gamma
                    / params.gamma)

        oracle, _ = quad(integrand, 0.0, grid.horizon, limit=200)
        assert est.mean == pytest.approx(oracle, rel=1e-4)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_infinite_horizon_value(self):
        """With a long horizon the estimate approaches the closed-form J."""
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        grid = make_grid(1.0, 0.02, 120.0)
        est = estimate_J(spec, grid, ex34_feedback(params, p0), 1, 0)
        target = ex34_objective(params, p0)
        assert est.mean == pytest.approx(target, rel=2e-3)
        assert est.tail_bound < 1e-3 * abs(target)


class TestTailBound:
    def test_tail_bound_decays_with_horizon(self):
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, p0)
        bounds = []
        for T in (5.0, 20.0, 60.0):
            grid = make_grid(1.0, 0.05, T)
            bounds.append(estimate_J(spec, grid, ctl, 2, 0).tail_bound)
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] < 1e-2 * bounds[0]


class TestMonteCarlo:
    def test_stderr_shrinks_with_paths(self, ex34_spec):
        grid = make_grid(1.0, 0.05, 30.0)
        ctl = constant_control(0.1)
        small = estimate_J(ex34_spec, grid, ctl, 256, 7)
        big = estimate_J(ex34_spec, grid, ctl, 4096, 7)
        assert big.stderr < small.stderr
        assert abs(big.mean - small.mean) < 5 * small.stderr

    def test_thread_invariance(self, ex34_spec):
        grid = make_grid(1.0, 0.05, 10.0)
        ctl = constant_control(0.1)
        a = estimate_J(ex34_spec, grid, ctl, 3000, 11, threads=1)
        b = estimate_J(ex34_spec, grid, ctl, 3000, 11, threads=8)
        assert a.mean == b.mean
        assert np.array_equal(a.per_path, b.per_path)


class TestCompareControls:
    def test_self_difference_is_zero(self, ex34_spec, ex34_control):
        grid = make_grid(1.0, 0.05, 10.0)
        mean, stderr = compare_controls(ex34_spec, grid, ex34_control,
                                        ex34_control, 512, 3)
        assert mean == 0.0
        assert stderr == 0.0

    def test_paired_noise_cancels(self, ex34_spec, ex34_control):
        """CRN pairing: the difference stderr is far below the marginal
        stderr of either estimate for nearby controls."""
        grid = make_grid(1.0, 0.05, 30.0)
        other = scale_control(ex34_control, 1.05)
        ja = estimate_J(ex34_spec, grid, ex34_control, 2048, 3)
        diff, diff_se = compare_controls(ex34_spec, grid, ex34_control, other,
                                         2048, 3)
        assert diff_se < 0.5 * max(ja.stderr, 1e-12) or ja.stderr == 0.0

    def test_detects_known_ordering(self):
        """Deterministic instance: the closed-form control beats a scaled
        one by the quadrature-computable margin."""
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        grid = make_grid(1.0, 0.02, 60.0)
        ctl = ex34_feedback(params, p0)
        worse = scale_control(ctl, 0.8)
        diff, _ = compare_controls(spec, grid, ctl, worse, 1, 0)
        assert diff > 0.0


class _WhereAccumulator(StepAccumulator):
    """The reward accumulator as it was before its all-alive fast path:
    three where passes on every step."""

    def begin(self, n_lanes, spec, grid):
        return {"spec": spec, "dt": grid.dt, "I": np.zeros(n_lanes),
                "prev_f": None, "alive": np.ones(n_lanes, dtype=bool),
                "last_f": np.zeros(n_lanes)}

    def _f(self, st, ctx):
        with np.errstate(all="ignore"):
            f = np.asarray(st["spec"].coeffs.f(ctx["t"], ctx["x"], ctx["y"],
                                               ctx["a"], ctx["u"]), float)
        return np.broadcast_to(f, ctx["x"].shape)

    def step(self, st, k, ctx):
        f = self._f(st, ctx)
        ok = np.isfinite(f)
        st["alive"] &= ok
        alive = st["alive"]
        if st["prev_f"] is not None:
            st["I"] += np.where(alive,
                                0.5 * st["dt"] * (st["prev_f"] + f), 0.0)
        st["prev_f"] = np.where(alive, f, 0.0)
        st["last_f"] = np.where(alive, f, st["last_f"])

    def finish(self, st, ctx):
        f = self._f(st, ctx)
        ok = np.isfinite(f)
        alive = st["alive"] & ok
        st["I"] += np.where(alive, 0.5 * st["dt"] * (st["prev_f"] + f), 0.0)
        last = np.where(alive, f, st["last_f"])
        return st["I"].copy(), np.abs(last), alive.astype(float)


class TestDomainExit:
    """The accumulator skips its where passes while every lane is in the
    domain of f; per_path, tail and alive must stay bitwise those of the
    where-based reduction, wherever the first NaN of f appears."""

    N_LANES, N_STEPS = 64, 40
    SPEC = SimpleNamespace(coeffs=SimpleNamespace(
        f=lambda t, x, y, a, u: x))  # f reads the lane values off ctx
    GRID = SimpleNamespace(dt=0.1)

    def _run(self, acc, values):
        st = acc.begin(self.N_LANES, self.SPEC, self.GRID)
        for k, x in enumerate(values[:-1]):
            acc.step(st, k, {"t": 0.1 * k, "x": x, "y": None, "a": None,
                             "u": None})
        return acc.finish(st, {"t": 0.1 * self.N_STEPS, "x": values[-1],
                               "y": None, "a": None, "u": None})

    @pytest.mark.parametrize("nan_at", [None, 0, 17, "final"])
    def test_matches_where_reduction(self, nan_at):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(self.N_STEPS + 1, self.N_LANES))
        if nan_at == "final":
            values[-1, ::7] = np.nan
        elif nan_at is not None:
            values[nan_at, ::5] = np.nan
            values[nan_at + 3:, 1] = np.inf  # a second exit, later
        got = self._run(RunningRewardAccumulator(), values)
        want = self._run(_WhereAccumulator(), values)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert got[2].all() == (nan_at is None)

    @staticmethod
    def _sqrt_reward():
        """f = sqrt(x) on dX = dB from X = 1 leaves the domain where the
        state turns negative, at different steps on different paths."""
        ones = lambda t, x, y, a, u: np.ones_like(np.asarray(x, float))
        coeffs = CoefficientSet(
            b=lambda t, x, y, a, u: 0.0 * np.asarray(x, float), sigma=ones,
            theta=None, f=lambda t, x, y, a, u: np.sqrt(x), partials={})
        spec = ProblemSpec(delta=0.2, rho=0.1, discount=0.1, coeffs=coeffs,
                           control_lo=0.0, control_hi=1.0,
                           initial_segment=lambda s: np.ones_like(s))
        return spec, make_grid(0.2, 0.05, 3.0)

    def test_ensemble_matches_where_reduction(self):
        spec, grid = self._sqrt_reward()
        res = simulate_ensemble(spec, grid, constant_control(0.5), 1500, 3,
                                accumulators=(RunningRewardAccumulator(),
                                              _WhereAccumulator()))
        got, want = res.extras
        assert 0.0 < got[2].mean() < 1.0
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_exits_raise_no_warning(self, threads):
        # sqrt of a negative state, at a step and at the final point
        # (finish), is NaN without a RuntimeWarning
        spec, grid = self._sqrt_reward()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_J(spec, grid, constant_control(0.5), 1500, 3,
                             threads=threads)
        assert est.exited_fraction > 0.0


def test_unrecorded_estimate_traced_peak(ex34_spec, ex34_control):
    """An unrecorded estimate keeps no per-step history.  At N = 4096
    lanes (four blocks stepped as one group), m = 10 and n = 600 its
    traced peak is about 65 lane rows of 8 N bytes (2.1 MB): the delay
    ring (m + 1 = 11 rows), the two 16-step noise chunks (32), the reward
    accumulator's state (3) and the step's live arrays and temporaries
    (about 19).  The bound, 76 rows (2.5 MB), leaves room for a few more
    temporaries but not for longer chunks: 32-step ones read 97 rows."""
    import tracemalloc

    grid = make_grid(1.0, 0.1, 60.0)
    n_paths = 4096
    assert (grid.m, grid.n) == (10, 600)

    def run():
        estimate_J(ex34_spec, grid, ex34_control, n_paths, 0)

    run()  # first-call allocations (caches, imports) stay out
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 76 * 8 * n_paths, f"peak {peak / (8 * n_paths):.1f} rows"
