"""Forward SDDE engine: delay bookkeeping, moving average, controls,
jumps, and reproducibility contracts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayctrl import make_grid
from delayctrl.errors import BadWindow, NonFiniteSegment, NonFiniteState
from delayctrl.forward import (
    BLOCK_SIZE,
    GROUP_BLOCKS,
    StepAccumulator,
    _prepare_variation,
    _run_blocks,
    bump_control,
    constant_control,
    feedback_control,
    scale_control,
    segment_average,
    simulate_ensemble,
    simulate_noiseless,
    simulate_path,
    simulate_variational,
    table_control,
    update_moving_average,
)
from delayctrl.model import CoefficientSet, ProblemSpec
from delayctrl.objective import RunningRewardAccumulator

from conftest import make_jump_spec


def brownian_oracle_A(X_hist, X_path, grid, rho):
    """Direct trapezoid evaluation of A_k from the full lagged segment."""
    full = np.concatenate([X_hist[:-1], X_path])
    n, m, dt = grid.n, grid.m, grid.dt
    out = np.empty(n + 1)
    for k in range(n + 1):
        seg = full[k: k + m + 1]
        out[k] = segment_average(seg, dt, rho)
    return out


class TestDelayExactness:
    def test_lag_is_bitwise(self, ex34_spec, ex34_control):
        grid = make_grid(1.0, 0.05, 4.0)
        rec = simulate_path(ex34_spec, grid, ex34_control, (17, 2))
        m = grid.m
        hist = ex34_spec.validate_segment(grid)
        full = np.concatenate([hist[:-1], rec.X])
        assert np.array_equal(rec.Y, full[: grid.n + 1])

    def test_moving_average_matches_trapezoid_oracle(self, ex34_spec,
                                                     ex34_control):
        grid = make_grid(1.0, 0.05, 4.0)
        rec = simulate_path(ex34_spec, grid, ex34_control, (17, 0))
        hist = ex34_spec.validate_segment(grid)
        oracle = brownian_oracle_A(hist, rec.X, grid, ex34_spec.rho)
        bound = 5 * grid.dt ** 2 * grid.delta * np.max(np.abs(rec.X))
        assert np.max(np.abs(rec.A - oracle)) <= bound
        # in practice the recursion agrees to roundoff, not just O(dt^2)
        assert np.max(np.abs(rec.A - oracle)) < 1e-12

    def test_update_moving_average_identity(self):
        rng = np.random.default_rng(0)
        dt, rho, m = 0.1, 0.3, 7
        seg = rng.normal(size=m + 2)
        A0 = segment_average(seg[:-1], dt, rho)
        A1 = update_moving_average(A0, seg, dt, rho)
        assert A1 == pytest.approx(segment_average(seg[1:], dt, rho), abs=1e-14)

    @given(seed=st.integers(0, 2**16), rho=st.floats(0.0, 1.0),
           m=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_update_recursion_equals_fresh_trapezoid(self, seed, rho, m):
        rng = np.random.default_rng(seed)
        dt = 0.05
        seg = rng.normal(size=m + 2)
        A0 = segment_average(seg[:-1], dt, rho)
        A1 = update_moving_average(A0, seg, dt, rho)
        assert A1 == pytest.approx(segment_average(seg[1:], dt, rho),
                                   abs=1e-12)


class TestControls:
    def test_constant(self, ex34_spec):
        u, clipped = constant_control(0.3).evaluate(
            ex34_spec, 0, 0.0, np.ones(4), np.ones(4), np.ones(4))
        np.testing.assert_array_equal(u, 0.3)
        assert not clipped

    def test_clipping_flag(self, ex34_spec):
        u, clipped = constant_control(99.0).evaluate(
            ex34_spec, 0, 0.0, np.ones(2), np.ones(2), np.ones(2))
        np.testing.assert_array_equal(u, 50.0)
        assert clipped

    def test_table_lookup(self, ex34_spec):
        ctl = table_control([0.1, 0.2, 0.3])
        u, _ = ctl.evaluate(ex34_spec, 1, 0.05, np.ones(2), np.ones(2),
                            np.ones(2))
        np.testing.assert_array_equal(u, 0.2)

    def test_scale_composes(self, ex34_spec):
        ctl = scale_control(scale_control(constant_control(0.2), 2.0), 3.0)
        u, _ = ctl.evaluate(ex34_spec, 0, 0.0, np.ones(1), np.ones(1),
                            np.ones(1))
        assert u[0] == pytest.approx(1.2)

    def test_bump_window_applied(self, ex34_spec):
        ctl = bump_control(constant_control(0.1), alpha=0.05, s=1.0, h=0.5,
                           horizon=3.0)
        inside, _ = ctl.evaluate(ex34_spec, 0, 1.2, np.ones(1), np.ones(1),
                                 np.ones(1))
        outside, _ = ctl.evaluate(ex34_spec, 0, 2.0, np.ones(1), np.ones(1),
                                  np.ones(1))
        assert inside[0] == pytest.approx(0.15)
        assert outside[0] == pytest.approx(0.1)

    def test_bad_window_rejected(self):
        with pytest.raises(BadWindow):
            bump_control(constant_control(0.1), alpha=1.0, s=2.5, h=1.0,
                         horizon=3.0)

    def test_feedback_sees_state(self, ex34_spec):
        ctl = feedback_control(lambda t, x, y, a: 0.5 * x)
        u, _ = ctl.evaluate(ex34_spec, 0, 0.0, np.array([0.2, 0.4]),
                            np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(u, [0.1, 0.2])


class TestReproducibility:
    def test_thread_count_invariance(self, ex34_spec, ex34_control):
        grid = make_grid(1.0, 0.05, 3.0)
        a = simulate_ensemble(ex34_spec, grid, ex34_control, 2500, 3,
                              record=True, threads=1)
        b = simulate_ensemble(ex34_spec, grid, ex34_control, 2500, 3,
                              record=True, threads=8)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.X, rb.X)
            assert np.array_equal(ra.dB, rb.dB)

    def test_path_count_invariance(self, ex34_spec, ex34_control):
        grid = make_grid(1.0, 0.05, 3.0)
        small = simulate_ensemble(ex34_spec, grid, ex34_control, 10, 3,
                                  record=True)
        big = simulate_ensemble(ex34_spec, grid, ex34_control, 1500, 3,
                                record=True)
        for k in range(10):
            assert np.array_equal(small.records[k].X, big.records[k].X)

    def test_single_path_extraction(self, ex34_spec, ex34_control):
        grid = make_grid(1.0, 0.05, 3.0)
        ens = simulate_ensemble(ex34_spec, grid, ex34_control, 1400, 9,
                                record=True)
        # lane in the second block: must match bitwise
        rec = simulate_path(ex34_spec, grid, ex34_control, (9, 1200))
        assert np.array_equal(rec.X, ens.records[1200].X)

    def test_different_seeds_differ(self, ex34_spec, ex34_control):
        grid = make_grid(1.0, 0.05, 3.0)
        a = simulate_path(ex34_spec, grid, ex34_control, (1, 0))
        b = simulate_path(ex34_spec, grid, ex34_control, (2, 0))
        assert not np.array_equal(a.dB, b.dB)


class _ContextSums(StepAccumulator):
    """Per-path sum of every per-lane array the engine hands to ``step``,
    plus the final state: sees each context entry of every lane."""

    KEYS = ("x", "y", "a", "u", "dB", "x1", "y1", "a1", "xi", "xi_lag",
            "Lam", "beta", "xi1")

    def begin(self, n_lanes, spec, grid):
        return {"s": np.zeros(n_lanes)}

    def step(self, st, k, ctx):
        for key in self.KEYS:
            if key in ctx:
                st["s"] += ctx[key]
        if ctx["counts"] is not None:
            st["s"] += ctx["counts"].sum(axis=1)

    def finish(self, st, ctx):
        return st["s"].copy(), np.array(ctx["x"], float, copy=True)


# two groups, the second ending in a partial block
GROUP_PATHS = GROUP_BLOCKS * BLOCK_SIZE + 37


def _wavy(spec):
    """The spec with a non-constant initial segment, so that each lane's
    A_0 comes from a real trapezoid sum."""
    return dataclasses.replace(spec, initial_segment=lambda s: (
        1.0 + 0.3 * np.sin(7.0 * np.asarray(s, float))))


class TestBlockGroups:
    """Stepping many blocks in one loop leaves every path bitwise as a
    single block simulates it."""

    @pytest.fixture(scope="class", params=["plain", "jumps", "variational"])
    def case(self, request, ex34_spec, ex34_control):
        # m = 10 on every grid: a delay ring long enough to exercise A_0
        if request.param == "jumps":
            spec = _wavy(make_jump_spec(intensity=2.0))
            return (spec, make_grid(0.5, 0.05, 0.5), constant_control(0.2),
                    None)
        grid = make_grid(1.0, 0.1, 1.0)
        beta = constant_control(1.0) if request.param == "variational" else None
        return _wavy(ex34_spec), grid, ex34_control, beta

    @staticmethod
    def _accumulators():
        return (RunningRewardAccumulator(), _ContextSums())

    def _ensemble(self, case, threads):
        spec, grid, ctl, beta = case
        return simulate_ensemble(spec, grid, ctl, GROUP_PATHS, 11,
                                 accumulators=self._accumulators(),
                                 record=True, beta=beta, threads=threads)

    @pytest.fixture(scope="class")
    def ensemble(self, case):
        return self._ensemble(case, threads=1)

    def test_records_and_extras_equal_block_by_block(self, case, ensemble):
        spec, grid, ctl, beta = case
        variation = _prepare_variation(spec, beta) if beta is not None else None
        n_blocks = -(-GROUP_PATHS // BLOCK_SIZE)
        parts = []
        for b in range(n_blocks):
            lanes = min(BLOCK_SIZE, GROUP_PATHS - b * BLOCK_SIZE)
            rec, extras, _ = _run_blocks(spec, grid, ctl, 11, b, lanes,
                                         self._accumulators(), True, variation)
            for name in ("X", "Y", "A", "u", "dB", "counts", "xi"):
                if rec[name] is None:
                    continue
                mine = np.stack([getattr(r, name) for r in
                                 ensemble.records[b * BLOCK_SIZE:
                                                  b * BLOCK_SIZE + lanes]])
                assert np.array_equal(mine, rec[name]), (b, name)
            parts.append(extras)
        for i, merged in enumerate(ensemble.extras):
            for j, arr in enumerate(merged):
                ref = np.concatenate([p[i][j] for p in parts])
                assert np.array_equal(arr, ref), (i, j)

    def test_records_equal_single_path_runs(self, case, ensemble):
        spec, grid, ctl, beta = case
        # a spread of lanes over every block (a single-path run simulates
        # lane + 1 lanes of its block), each block's edges and the whole
        # partial block
        edges = {e for b in range(1, -(-GROUP_PATHS // BLOCK_SIZE))
                 for e in (b * BLOCK_SIZE - 1, b * BLOCK_SIZE)}
        lanes = sorted(edges | set(range(0, GROUP_PATHS, 97))
                       | set(range(GROUP_PATHS - 37, GROUP_PATHS)))
        for i in lanes:
            rec = ensemble.records[i]
            if beta is None:
                one = simulate_path(spec, grid, ctl, (11, i))
                for name in ("X", "Y", "A", "u", "dB", "counts"):
                    assert np.array_equal(getattr(rec, name),
                                          getattr(one, name)), (i, name)
            else:
                xi = simulate_variational(spec, grid, ctl, beta, (11, i))
                assert np.array_equal(rec.xi, xi), i

    def test_thread_counts_agree(self, case, ensemble):
        other = self._ensemble(case, threads=2)
        for ra, rb in zip(ensemble.records, other.records):
            for name in ("X", "A", "u", "dB", "counts", "xi"):
                assert np.array_equal(getattr(ra, name), getattr(rb, name))
        for ea, eb in zip(ensemble.extras, other.extras):
            for a, b in zip(ea, eb):
                assert np.array_equal(a, b)


def _zero(t, x, y, a, u):
    return np.zeros_like(np.asarray(x, float))


def _brownian_spec(b=_zero, partials=None, u_hi=1.0):
    """dX = b dt + dB on a short delay, no reward, u in (-inf, u_hi]."""
    coeffs = CoefficientSet(
        b=b, sigma=lambda t, x, y, a, u: np.ones_like(np.asarray(x, float)),
        theta=None, f=_zero, partials=partials or {})
    return ProblemSpec(delta=0.2, rho=0.1, discount=0.1, coeffs=coeffs,
                       control_lo=-np.inf, control_hi=u_hi,
                       initial_segment=lambda s: np.ones_like(s))


def test_clipped_flag_is_per_block():
    # u = x does not feed back into dX = dB; a bound at the middle block's
    # largest state clips exactly the block whose paths go higher
    grid = make_grid(0.2, 0.1, 0.4)
    ctl = feedback_control(lambda t, x, y, a: x)
    n_paths = 3 * BLOCK_SIZE
    free = simulate_ensemble(_brownian_spec(u_hi=np.inf), grid, ctl, n_paths,
                             2, record=True)
    assert not free.clipped
    top = np.array([max(r.X.max() for r in free.records[b * BLOCK_SIZE:
                                                          (b + 1) * BLOCK_SIZE])
                    for b in range(3)])
    ens = simulate_ensemble(_brownian_spec(u_hi=np.median(top)), grid, ctl,
                            n_paths, 2, record=True)
    expect = np.repeat(top > np.median(top), BLOCK_SIZE)
    assert np.array_equal([r.clipped for r in ens.records], expect)
    assert ens.clipped


class TestNonFiniteContext:
    SEED = 2

    @pytest.mark.parametrize("where", ["state", "xi"])
    def test_second_block_lane(self, where):
        grid = make_grid(0.2, 0.1, 0.4)
        n_paths = 2 * BLOCK_SIZE
        calm = _brownian_spec()
        ens = simulate_ensemble(calm, grid, constant_control(0.0), n_paths,
                                self.SEED, record=True)
        x1 = np.array([r.X[1] for r in ens.records])
        # no lane of block 0 passes the threshold; the seed puts one of
        # block 1 above it
        thr = x1[:BLOCK_SIZE].max()
        first = int(np.flatnonzero(x1 > thr)[0])
        assert first >= BLOCK_SIZE

        def blow(t, x, y, a, u):
            return np.where(np.asarray(x, float) > thr, np.inf, 0.0)

        if where == "state":
            spec, beta = _brownian_spec(blow), None
        else:
            spec = _brownian_spec(partials={"b": {"x": blow}})
            beta = constant_control(1.0)
        with pytest.raises(NonFiniteState) as info:
            simulate_ensemble(spec, grid, constant_control(0.0), n_paths,
                              self.SEED, beta=beta)
        err = info.value
        assert (err.step, err.block, err.lane) == (2, 1, first - BLOCK_SIZE)
        assert f"block 1, lane {first - BLOCK_SIZE}" in str(err)


class TestDynamics:
    def test_noiseless_matches_closed_form(self, ex34_det_spec):
        from delayctrl.examples import (Example34Params, ex34_feedback,
                                        ex34_p0_star, ex34_state)
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        grid = make_grid(1.0, 0.001, 5.0)
        rec = simulate_noiseless(ex34_det_spec, grid,
                                 ex34_feedback(params, p0))
        exact = ex34_state(params, grid.times, p0)
        assert np.max(np.abs(rec.X - exact)) < 5e-7

    def test_brownian_increments_have_unit_variance_scale(self, ex34_spec,
                                                          ex34_control):
        grid = make_grid(1.0, 0.05, 3.0)
        ens = simulate_ensemble(ex34_spec, grid, ex34_control, 4096, 21,
                                record=True)
        dB = np.stack([r.dB for r in ens.records])
        assert np.mean(dB) == pytest.approx(0.0, abs=3e-3)
        assert np.var(dB) == pytest.approx(grid.dt, rel=0.05)

    def test_jump_counts_poisson_mean(self):
        spec = make_jump_spec(intensity=2.0)
        grid = make_grid(0.5, 0.05, 2.0)
        ens = simulate_ensemble(spec, grid, constant_control(0.0), 4096, 5,
                                record=True)
        counts = np.stack([r.counts for r in ens.records])
        total = counts.sum(axis=(1, 2))
        # total jumps per path ~ Poisson(intensity * T)
        assert np.mean(total) == pytest.approx(2.0 * 2.0, rel=0.05)

    def test_jump_marks_move_the_state(self):
        spec = make_jump_spec(intensity=2.0)
        grid = make_grid(0.5, 0.05, 2.0)
        ens = simulate_ensemble(spec, grid, constant_control(0.0), 512, 5,
                                record=True)
        jumped = [r for r in ens.records if r.counts.sum() > 0]
        assert jumped, "expected at least one jumping path"
        # geometric dynamics with mean mark 0.05 and compensation off:
        # E[X_T] = exp(mu T) * prod of mark factors; just sanity-check
        # that jump steps change X beyond the diffusion scale
        r = jumped[0]
        k = int(np.argmax(r.counts.sum(axis=1) > 0))
        step = abs(r.X[k + 1] - r.X[k])
        assert step > 0.0

    def test_nonfinite_segment_rejected(self, jump_spec):
        bad = dataclasses.replace(
            jump_spec, initial_segment=lambda s: np.full_like(
                np.asarray(s, float), np.nan))
        grid = make_grid(0.5, 0.05, 1.0)
        with pytest.raises(NonFiniteSegment):
            bad.validate_segment(grid)


class TestVariational:
    def test_xi_matches_state_difference_linear(self):
        """For linear dynamics the variational process equals the exact
        pathwise derivative: X(u + s beta) - X(u) = s xi for any s."""
        from delayctrl import build_problem

        cfg = {
            "problem": {
                "selector": "linear_quadratic",
                "params": {"s0": 0.1, "sx": 0.0},
                "delta": 0.5, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
                "control_bounds": [-5.0, 5.0],
                "initial_segment": {"kind": "constant", "value": 1.0},
            },
        }
        spec = build_problem(cfg)
        grid = make_grid(0.5, 0.05, 2.0)
        base = constant_control(0.2)
        beta = constant_control(1.0)
        s = 0.25
        xi = simulate_variational(spec, grid, base, beta, (3, 1))
        bumped = simulate_path(
            spec, grid,
            bump_control(base, alpha=s, s=0.0, h=grid.horizon), (3, 1))
        plain = simulate_path(spec, grid, base, (3, 1))
        np.testing.assert_allclose(bumped.X - plain.X, s * xi, atol=1e-10)

    def test_xi_zero_without_perturbation_channel(self, ex34_det_spec):
        grid = make_grid(1.0, 0.05, 2.0)
        xi = simulate_variational(ex34_det_spec, grid, constant_control(0.15),
                                  constant_control(0.0), (0, 0))
        np.testing.assert_array_equal(xi, 0.0)
