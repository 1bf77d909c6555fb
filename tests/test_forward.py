"""Forward SDDE engine: delay bookkeeping, moving average, controls,
jumps, and reproducibility contracts."""

import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayctrl import forward, make_grid
from delayctrl.errors import BadWindow, NonFiniteSegment, NonFiniteState
from delayctrl.forward import (
    BLOCK_SIZE,
    GROUP_BLOCKS,
    NOISE_CHUNK,
    RECORD_KEYS,
    PathRecord,
    StepAccumulator,
    _average_step,
    _average_weights,
    _jump_term,
    _poisson_counts,
    _prepare_variation,
    _record_arrays,
    _replay_marks,
    _run_blocks,
    bump_control,
    bump_start_step,
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


class TestMovingAverageReplay:
    """The recursion under test is the one the engine runs: replaying
    update_moving_average over the recorded X, from a non-constant
    initial segment, reproduces the recorded A bitwise."""

    GRID = make_grid(1.0, 0.05, 4.0)

    @staticmethod
    def spec():
        from delayctrl.examples import Example35Params, make_ex35_problem

        spec = make_ex35_problem(Example35Params(sigma0=0.05))
        return dataclasses.replace(
            spec, initial_segment=lambda s: 1.0 + 0.3 * np.sin(3.0 * s))

    @staticmethod
    def replay(spec, grid, rec):
        full = np.concatenate([spec.validate_segment(grid)[:-1], rec.X])
        A = [rec.A[0]]
        for k in range(grid.n):
            A.append(update_moving_average(A[-1], full[k: k + grid.m + 2],
                                           grid.dt, spec.rho))
        return np.array(A)

    @pytest.mark.parametrize("lane", [0, 5, BLOCK_SIZE + 476])
    def test_simulate_path(self, lane):
        spec = self.spec()
        rec = simulate_path(spec, self.GRID, constant_control(0.05),
                            (11, lane))
        assert np.array_equal(self.replay(spec, self.GRID, rec), rec.A)

    def test_simulate_noiseless(self):
        spec = self.spec()
        rec = simulate_noiseless(spec, self.GRID, constant_control(0.05))
        assert np.array_equal(self.replay(spec, self.GRID, rec), rec.A)

    @pytest.mark.parametrize("shape", [(), (2085,)])
    def test_step_is_the_one_expression(self, shape):
        # the in-place sums are bitwise the left-to-right expression, and
        # leave their inputs alone
        rng = np.random.default_rng(4)
        w = _average_weights(0.01, 50, 0.3)
        ed, c_drop, c_edge, c_prev, c_new = w
        args = [rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
                for _ in range(5)]
        if shape:
            args[0][:3] = -0.0
            args[1][:3] = 0.0
        else:
            args = [np.float64(v) for v in args]
        before = [np.copy(v) for v in args]
        A, drop, edge, prev, new = args
        out = _average_step(w, *args)
        want = (ed * A - c_drop * drop - c_edge * edge + c_prev * prev
                + c_new * new)
        assert np.shape(out) == shape
        assert np.asarray(out).tobytes() == np.asarray(want).tobytes()
        for v, v0 in zip(args, before):
            assert np.asarray(v).tobytes() == np.asarray(v0).tobytes()


def _clip_by_mask(u, lo, hi, starts):
    """The clip flags and values as the out-of-bound mask gives them: the
    reference ``ControlSpec.evaluate`` must match bit for bit."""
    outside = (u < lo) | (u > hi)
    if starts is None:
        flag = clip = bool(outside.any())
    else:
        flag = np.logical_or.reduceat(outside, starts)
        clip = flag.any()
    return (np.clip(u, lo, hi) if clip else u), flag


_NAN, _INF = np.nan, np.inf
# blocks of four lanes against the ex34 bounds [0, 50]
_CLIP_CASES = {
    "interior": [0.1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    "at_bounds": [0.0, 50.0, 0.0, 1.0, 50.0, 50.0, 0.0, 0.0],
    "inf": [1.0, _INF, 2.0, 3.0, -_INF, 1.0, 1.0, 1.0],
    "all_nan": [_NAN] * 8,
    "nan_beside_low": [1.0, 2.0, 3.0, 4.0, _NAN, -1.0, 2.0, 3.0],
    "nan_beside_high": [_NAN, 51.0, 1.0, 1.0, 2.0, 2.0, 3.0, _NAN],
    "nan_then_in": [_NAN, 1.0, 2.0, 3.0, 4.0, _NAN, 5.0, 6.0],
    "zero_signs": [-0.0, 0.0, -0.0, 1.0, 2.0, 3.0, 4.0, -1e-300],
}


class TestControls:
    @pytest.mark.parametrize("form", ["scalar", "whole", "blocks", "lanes"])
    @pytest.mark.parametrize("case", sorted(_CLIP_CASES))
    def test_clipping_matches_the_mask(self, ex34_spec, case, form):
        # the forms of simulate_noiseless (scalar, lanes: one flag per
        # lane), of a bare lane array (whole) and of the engine (blocks)
        ctl = feedback_control(lambda t, x, y, a: x)
        lo, hi = ex34_spec.control_lo, ex34_spec.control_hi
        values = np.array(_CLIP_CASES[case])
        starts = {"blocks": np.array([0, 4]),
                  "lanes": np.arange(values.size)}.get(form)
        for u in ([np.array(v) for v in values] if form == "scalar"
                  else [values]):
            got, flag = ctl.evaluate(ex34_spec, 0, 0.0, u.copy(), u, u,
                                     starts=starts)
            want, want_flag = _clip_by_mask(u, lo, hi, starts)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            if starts is None:
                assert type(flag) is bool and flag == want_flag
            else:
                assert flag.dtype == bool and np.array_equal(flag, want_flag)

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
            rec = _record_arrays(spec, grid, lanes, beta is not None)
            extras, _, _ = _run_blocks(spec, grid, ctl, 11, b, lanes,
                                       self._accumulators(), rec, variation)
            for name in ("X", "Y", "A", "u", "dB", "counts", "xi"):
                if rec[name] is None:
                    continue
                mine = np.stack([getattr(r, name) for r in
                                 ensemble.records[b * BLOCK_SIZE:
                                                  b * BLOCK_SIZE + lanes]])
                assert np.array_equal(mine, rec[name].swapaxes(0, 1)), (
                    b, name)
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


class TestRecordArrays:
    """A recorded ensemble's ``arrays`` are the memory its PathRecords
    view: every record shares it, and stacking the records, as callers
    once had to, gives the same arrays bitwise."""

    SMALL = 1500  # one block group with threads=1, two with threads=2

    @staticmethod
    def make_case(name, ex34_spec, ex34_control):
        if name == "jumps":
            return (_wavy(make_jump_spec(intensity=2.0)),
                    make_grid(0.5, 0.05, 0.5), constant_control(0.2), None)
        beta = constant_control(1.0) if name == "variational" else None
        return _wavy(ex34_spec), make_grid(1.0, 0.1, 1.0), ex34_control, beta

    @pytest.fixture(scope="class", params=["plain", "jumps", "variational"])
    def case(self, request, ex34_spec, ex34_control):
        return self.make_case(request.param, ex34_spec, ex34_control)

    @staticmethod
    def assert_views(res):
        for key in RECORD_KEYS:
            arr = res.arrays[key]
            rows = [getattr(r, key) for r in res.records]
            if arr is None:
                assert all(v is None for v in rows), key
                continue
            assert len(arr) == res.n_paths
            assert np.array_equal(arr, np.stack(rows)), key
            assert all(np.shares_memory(arr, v) for v in rows), key

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n_paths", [SMALL, GROUP_PATHS])
    def test_arrays_are_the_records(self, case, n_paths, threads):
        spec, grid, ctl, beta = case
        res = simulate_ensemble(spec, grid, ctl, n_paths, 11, record=True,
                                beta=beta, threads=threads)
        self.assert_views(res)
        assert res.arrays["X"].shape == (n_paths, grid.n + 1)
        assert (res.arrays["counts"] is None) == (not spec.has_jumps)
        assert (res.arrays["xi"] is None) == (beta is None)
        # each group wrote its own lanes: the first paths are those of a
        # smaller run
        small = simulate_ensemble(spec, grid, ctl, 100, 11, record=True,
                                  beta=beta)
        for key in RECORD_KEYS:
            if small.arrays[key] is not None:
                assert np.array_equal(res.arrays[key][:100],
                                      small.arrays[key]), key

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["plain", "jumps"])  # no beta: no resume
    def test_resumed_run_records_views(self, name, threads, ex34_spec,
                                       ex34_control):
        spec, grid, ctl, _ = self.make_case(name, ex34_spec, ex34_control)
        k = grid.n // 2
        bumped = dataclasses.replace(
            ctl, bumps=ctl.bumps + ((0.05, k * grid.dt, 0.3),))
        args = (spec, grid, bumped, self.SMALL, 11)
        saved = simulate_ensemble(spec, grid, ctl, self.SMALL, 11,
                                  record=True, threads=threads, save_at=[k])
        full = simulate_ensemble(*args, record=True, threads=threads)
        resumed = simulate_ensemble(*args, record=True, threads=threads,
                                    resume=saved.states[k])
        self.assert_views(resumed)
        for key in RECORD_KEYS:
            if full.arrays[key] is not None:
                assert np.array_equal(full.arrays[key],
                                      resumed.arrays[key]), key
                assert not np.shares_memory(resumed.arrays[key],
                                            saved.arrays[key]), key
        # the saved state holds slices of the saved run's arrays
        for group in saved.states[k].groups:
            assert np.shares_memory(group["rec"]["dB"], saved.arrays["dB"])


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

    @pytest.mark.parametrize("where", ["state", "overflow", "xi"])
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

        def overflow(t, x, y, a, u):  # exp(1000) overflows, exp(-inf) = 0
            return np.exp(np.where(np.asarray(x, float) > thr, 1e3, -np.inf))

        if where == "xi":
            spec = _brownian_spec(partials={"b": {"x": blow}})
            beta = constant_control(1.0)
        else:
            spec = _brownian_spec(blow if where == "state" else overflow)
            beta = None
        # the engine reports the lane; no floating-point warning escapes
        with warnings.catch_warnings(), pytest.raises(NonFiniteState) as info:
            warnings.simplefilter("error")
            simulate_ensemble(spec, grid, constant_control(0.0), n_paths,
                              self.SEED, beta=beta)
        err = info.value
        assert (err.step, err.block, err.lane) == (2, 1, first - BLOCK_SIZE)
        assert f"block 1, lane {first - BLOCK_SIZE}" in str(err)


def _philox_replay(seed, n_paths, steps, rates=()):
    """Increments dB and jump counts of every path, redrawn step by step
    from each block's Philox stream in the documented order: full-width
    normals, then full-width Poisson counts mark by mark."""
    dB = np.empty((n_paths, steps))
    counts = np.empty((n_paths, steps, len(rates)), dtype=np.int64)
    for block, lo in enumerate(range(0, n_paths, BLOCK_SIZE)):
        hi = min(lo + BLOCK_SIZE, n_paths)
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + block))
        for k in range(steps):
            dB[lo:hi, k] = rng.standard_normal(BLOCK_SIZE)[:hi - lo]
            for j, lam in enumerate(rates):
                counts[lo:hi, k, j] = rng.poisson(lam, BLOCK_SIZE)[:hi - lo]
    return dB, counts


class TestNoiseProducer:
    """Without jumps the engine draws NOISE_CHUNK steps of normals ahead on
    a producer thread; every variate must be the one a per-step draw of
    the block's stream gives, whatever the step count and lane split."""

    SEED = 5
    N_PATHS = 2 * BLOCK_SIZE + 37  # the last block is partial

    @pytest.mark.parametrize("steps", [1, NOISE_CHUNK - 3, NOISE_CHUNK,
                                       NOISE_CHUNK + 1, 3 * NOISE_CHUNK + 5])
    def test_increments_equal_per_step_draws(self, steps):
        dt = 0.2
        grid = make_grid(0.2, dt, steps * dt)
        assert grid.n == steps
        ens = simulate_ensemble(_brownian_spec(), grid, constant_control(0.0),
                                self.N_PATHS, self.SEED, record=True)
        z, _ = _philox_replay(self.SEED, self.N_PATHS, steps)
        dB = np.stack([r.dB for r in ens.records])
        assert np.array_equal(dB, np.sqrt(dt) * z)
        # dX = dB from X = 1: each step adds its row of increments
        x = np.ones(self.N_PATHS)
        for k, rec_x in enumerate(np.stack([r.X for r in ens.records]).T[1:]):
            x = x + dB[:, k]
            assert np.array_equal(rec_x, x)

    def test_thread_counts_agree(self):
        grid = make_grid(0.2, 0.1, (3 * NOISE_CHUNK + 5) * 0.1)
        ens = [simulate_ensemble(_brownian_spec(), grid,
                                 feedback_control(lambda t, x, y, a: -x),
                                 self.N_PATHS, self.SEED, record=True,
                                 threads=threads)
               for threads in (1, 2)]
        for key in ("X", "A", "u", "dB"):
            assert np.array_equal(
                np.stack([getattr(r, key) for r in ens[0].records]),
                np.stack([getattr(r, key) for r in ens[1].records]))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_increments_across_block_groups(self, threads):
        # ten blocks, the last partial: groups of 8 + 2 blocks on one
        # thread, 5 + 5 on two; the step count ends mid-chunk
        n_paths = 9 * BLOCK_SIZE + 100
        steps = 2 * NOISE_CHUNK + 5
        dt = 0.2
        grid = make_grid(0.2, dt, steps * dt)
        ens = simulate_ensemble(_brownian_spec(), grid, constant_control(0.0),
                                n_paths, self.SEED, record=True,
                                threads=threads)
        z, _ = _philox_replay(self.SEED, n_paths, steps)
        assert ens.arrays["dB"].tobytes() == (np.sqrt(dt) * z).tobytes()

    # dt 1e-3: 0.51 expected jumps per block-step, where the counts are
    # replayed from uniforms; dt 0.1: 51, past the crossover to rng.poisson
    @pytest.mark.parametrize("dt, steps, replayed", [
        pytest.param(1e-3, 500 + NOISE_CHUNK + 4, True, id="sparse"),
        pytest.param(0.1, NOISE_CHUNK + 4, False, id="dense")])
    def test_jump_streams_draw_inline(self, jump_spec, dt, steps, replayed):
        grid = make_grid(0.5, dt, steps * dt)
        assert grid.n == steps
        jump = jump_spec.jump
        rates = [jump.intensity * pz * dt for pz in jump.marks.probs]
        assert (_replay_marks(tuple(rates), BLOCK_SIZE) is not None) == replayed
        ens = simulate_ensemble(jump_spec, grid, constant_control(0.3),
                                self.N_PATHS, self.SEED, record=True)
        z, counts = _philox_replay(self.SEED, self.N_PATHS, steps, rates)
        assert counts.any()
        assert np.array_equal(np.stack([r.dB for r in ens.records]),
                              np.sqrt(dt) * z)
        assert np.array_equal(np.stack([r.counts for r in ens.records]),
                              counts)

    def test_nonfinite_mid_chunk_stops_the_producer(self):
        # the drift blows up one step into the second chunk, while the
        # producer is drawing the third
        dt = 0.1
        k_bad = NOISE_CHUNK + 1
        grid = make_grid(0.2, dt, 4 * NOISE_CHUNK * dt)

        def blow(t, x, y, a, u):
            bad = np.inf if t >= (k_bad - 0.5) * dt else 0.0
            return np.full_like(np.asarray(x, float), bad)

        before = threading.active_count()
        with pytest.raises(NonFiniteState) as info:
            simulate_ensemble(_brownian_spec(blow), grid,
                              constant_control(0.0), self.N_PATHS, self.SEED)
        assert info.value.step == k_bad + 1
        assert threading.active_count() == before


def _twin_generators(seed):
    return [np.random.Generator(np.random.Philox(key=seed)) for _ in (0, 1)]


class TestPoissonReplay:
    """_poisson_counts gives bitwise the counts of rng.poisson called
    mark by mark on a twin generator, and leaves its generator in the
    same state."""

    STEPS = 5

    @pytest.fixture
    def replay_always(self, monkeypatch):
        # every rate below 10 replayed, whatever the expected jumps
        monkeypatch.setattr(forward, "_REPLAY_MAX_JUMPS", np.inf)
        _replay_marks.cache_clear()
        yield
        _replay_marks.cache_clear()

    @staticmethod
    def _compare(rates, seeds, width=BLOCK_SIZE):
        for seed in seeds:
            ours, ref = _twin_generators(seed)
            for _ in range(TestPoissonReplay.STEPS):
                # normals between the steps, as the engine draws them
                assert np.array_equal(ours.standard_normal(BLOCK_SIZE),
                                      ref.standard_normal(BLOCK_SIZE))
                got = _poisson_counts(ours, rates, width)
                want = np.stack([ref.poisson(lam, width) for lam in rates],
                                axis=1)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert ours.random() == ref.random()

    @pytest.mark.parametrize("rates", [
        (1e-6,), (2.5e-4, 2.5e-4), (0.025,), (0.5,), (9.99,),
        (2.5e-4, 0.0, 1e-3), (0.0,), (0.0, 0.0), (10.0,), (2.5e-4, 12.0)],
        ids=repr)
    def test_counts_and_state_equal_rng_poisson(self, replay_always, rates):
        # fewer lanes where each count takes many uniforms in Python
        self._compare(rates, range(100),
                      BLOCK_SIZE if max(rates) < 0.1 else 128)

    def test_sparse_and_dense_rates_at_the_crossover(self):
        for rates in [(2.5e-4, 2.5e-4), (9e-4, 9e-4), (1e-3, 1e-3),
                      (0.025, 0.025)]:
            self._compare(rates, range(100))

    def test_crossover(self):
        per_lane = forward._REPLAY_MAX_JUMPS / BLOCK_SIZE
        assert _replay_marks((per_lane / 2, per_lane / 2), BLOCK_SIZE)
        assert _replay_marks((per_lane, 1e-9), BLOCK_SIZE) is None
        assert _replay_marks((10.0,), 1) is None
        assert _replay_marks((1.5,), 1) == ((0, math.exp(-1.5)),)
        assert _replay_marks((0.0, 0.0), BLOCK_SIZE) == ()

    def test_a_lane_of_every_mark_jumps(self, replay_always):
        # rates high enough that most lanes of both marks jump, each
        # shifting the lanes after it, across a partial width
        self._compare((0.9, 2.0), range(100), width=37)


class TestJumpTerm:
    def test_equals_einsum_bitwise(self):
        rng = np.random.default_rng(8)
        for n_marks in (1, 2, 3, 7):
            nb = 2085
            counts = rng.poisson(0.8, (nb, n_marks))
            th = rng.standard_normal((n_marks, nb)) * 10.0 ** rng.integers(
                -6, 6, (n_marks, nb))
            th[rng.random((n_marks, nb)) < 0.3] = -0.0
            th[rng.random((n_marks, nb)) < 0.1] = 0.0
            th[:, :4] = -0.0  # every product -0.0 on these lanes
            th[0, 4:7] = [np.inf, -np.inf, np.nan]
            assert (counts > 1).sum(axis=1).max() >= min(n_marks, 2)
            with np.errstate(invalid="ignore"):  # 0 * inf, as in the engine
                got = _jump_term(counts, th)
                want = np.einsum("ij,ji->i", counts, th)
            assert got.tobytes() == want.tobytes()


class TestPathRecordCsv:
    def test_bytes_equal_the_per_row_writer(self, tmp_path):
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e16,
                    -1e16, 0.1, 5e-324]
        rec = PathRecord(t=np.roll(specials, 4), X=np.array(specials),
                         Y=np.roll(specials, 1), A=np.roll(specials, 2),
                         u=np.roll(specials, 3),
                         dB=np.zeros(len(specials) - 1))
        path = tmp_path / "path.csv"
        rec.to_csv(str(path))
        rows = np.column_stack((rec.t, rec.X, rec.Y, rec.A, rec.u))
        want = "t,X,Y,A,u\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(row)
            for row in rows.tolist())
        assert path.read_bytes() == want.encode()


class TestResume:
    """A run resumed from a saved engine state is bitwise the full run of
    its control: every record array, accumulator extra and clip flag."""

    SEED = 7
    N_PATHS = 2 * BLOCK_SIZE + 37  # the last block is partial
    DT = 0.1
    STEPS = 3 * NOISE_CHUNK + 5

    @classmethod
    def save_steps(cls):
        # chunk edges, the last step, and the final point alone
        return (0, 1, NOISE_CHUNK - 1, NOISE_CHUNK, NOISE_CHUNK + 1,
                cls.STEPS - 1, cls.STEPS)

    @pytest.fixture(scope="class", params=["ex34", "jumps"])
    def case(self, request, ex34_spec, ex34_control):
        horizon = self.STEPS * self.DT
        if request.param == "jumps":
            spec = _wavy(make_jump_spec(intensity=2.0))
            return spec, make_grid(0.5, self.DT, horizon), constant_control(0.2)
        return _wavy(ex34_spec), make_grid(1.0, self.DT, horizon), ex34_control

    @pytest.fixture(scope="class", params=[1, 2])
    def threads(self, request):
        return request.param

    @staticmethod
    def _accumulators():
        return (RunningRewardAccumulator(), _ContextSums())

    @pytest.fixture(scope="class")
    def saved(self, case, threads):
        spec, grid, ctl = case
        assert grid.n == self.STEPS
        return simulate_ensemble(spec, grid, ctl, self.N_PATHS, self.SEED,
                                 accumulators=self._accumulators(),
                                 record=True, threads=threads,
                                 save_at=self.save_steps())

    @staticmethod
    def assert_same(a, b):
        for name in ("X", "Y", "A", "u", "dB", "counts", "clipped"):
            va = [getattr(r, name) for r in a.records]
            if va[0] is None:
                assert all(getattr(r, name) is None for r in b.records), name
                continue
            assert np.array_equal(np.stack(va), np.stack(
                [getattr(r, name) for r in b.records])), name
        for ea, eb in zip(a.extras, b.extras, strict=True):
            for xa, xb in zip(ea, eb, strict=True):
                assert np.array_equal(xa, xb)
        assert a.clipped == b.clipped

    def test_resumed_equals_full_run(self, case, threads, saved):
        spec, grid, ctl = case
        for k in self.save_steps():
            # a bump from step k on: the control agrees with the saved
            # run's before k and differs from it at k
            s = k * grid.dt
            assert bump_start_step(grid, s) == k
            bumped = dataclasses.replace(
                ctl, bumps=ctl.bumps + ((0.05, s, 0.3),))
            args = (spec, grid, bumped, self.N_PATHS, self.SEED)
            kwargs = dict(accumulators=self._accumulators(), record=True,
                          threads=threads)
            full = simulate_ensemble(*args, **kwargs)
            resumed = simulate_ensemble(*args, **kwargs,
                                        resume=saved.states[k])
            assert not np.array_equal(full.records[0].u[k],
                                      saved.records[0].u[k])
            self.assert_same(full, resumed)

    def test_unrecorded_save_resumes_like_a_recorded_one(self, case, threads,
                                                         saved):
        """An unrecorded run that saves keeps only the increments from its
        first save step on; every run resumed from its states is bitwise
        the one resumed from the recorded run's states, and its own
        extras are the recorded run's."""
        spec, grid, ctl = case
        steps = self.save_steps()[2:]  # the first save is past step 0
        args = (spec, grid, ctl, self.N_PATHS, self.SEED)
        bare = simulate_ensemble(*args, accumulators=self._accumulators(),
                                 threads=threads, save_at=steps)
        assert bare.arrays is None
        for ea, eb in zip(saved.extras, bare.extras, strict=True):
            for xa, xb in zip(ea, eb, strict=True):
                assert np.array_equal(xa, xb)
        for k in steps:
            state = bare.states[k]
            for grp in state.groups:
                assert grp["rec"] is None and grp["kept0"] == steps[0]
                assert grp["kept"]["dB"].shape[0] == grid.n - steps[0]
            bumped = dataclasses.replace(
                ctl, bumps=ctl.bumps + ((0.05, k * grid.dt, 0.3),))
            kwargs = dict(accumulators=self._accumulators(), threads=threads)
            from_bare = simulate_ensemble(spec, grid, bumped, self.N_PATHS,
                                          self.SEED, **kwargs, resume=state)
            from_recorded = simulate_ensemble(
                spec, grid, bumped, self.N_PATHS, self.SEED, **kwargs,
                resume=saved.states[k])
            for ea, eb in zip(from_recorded.extras, from_bare.extras,
                              strict=True):
                for xa, xb in zip(ea, eb, strict=True):
                    assert np.array_equal(xa, xb)
            assert np.array_equal(from_recorded.block_clipped,
                                  from_bare.block_clipped)

    def test_recording_resume_from_unrecorded_save_raises(self, ex34_spec,
                                                          ex34_control):
        grid = make_grid(1.0, self.DT, 2.0)
        run = dict(spec=ex34_spec, grid=grid, control=ex34_control,
                   n_paths=self.N_PATHS, seed=self.SEED)
        state = simulate_ensemble(**run, save_at=[5]).states[5]
        simulate_ensemble(**run, resume=state)  # an unrecorded resume runs
        with pytest.raises(ValueError, match="recorded"):
            simulate_ensemble(**run, record=True, resume=state)

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_clip_flags(self, where):
        # u = 2 passes the bound 1 only before, or only from, the save step
        grid = make_grid(0.2, self.DT, 4.0)
        k_save = 2 * NOISE_CHUNK + 3
        t_c = (k_save - 0.5) * grid.dt

        def rule(t, x, y, a):
            over = t < t_c if where == "before" else t >= t_c
            return np.full_like(np.asarray(x, float), 2.0 if over else 0.0)

        spec, ctl = _brownian_spec(), feedback_control(rule)
        args = (spec, grid, ctl, self.N_PATHS, self.SEED)
        full = simulate_ensemble(*args, record=True, save_at=[k_save])
        resumed = simulate_ensemble(*args, record=True,
                                    resume=full.states[k_save])
        assert resumed.clipped and all(r.clipped for r in resumed.records)
        self.assert_same(full, resumed)

    def test_mismatched_resume_raises(self, ex34_spec, ex34_control):
        grid = make_grid(1.0, self.DT, 2.0)
        run = dict(spec=ex34_spec, grid=grid, control=ex34_control,
                   n_paths=self.N_PATHS, seed=self.SEED,
                   accumulators=self._accumulators())
        state = simulate_ensemble(**run, record=True,
                                  save_at=[5]).states[5]
        simulate_ensemble(**run, resume=state)  # the matching run resumes
        for change in (dict(beta=constant_control(1.0)),
                       dict(spec=dataclasses.replace(ex34_spec)),
                       dict(grid=make_grid(1.0, self.DT, 2.1)),
                       dict(n_paths=self.N_PATHS - 1),
                       dict(seed=self.SEED + 1),
                       dict(threads=2),  # groups of 2 blocks, not 3
                       dict(accumulators=(RunningRewardAccumulator(),)),
                       dict(record=True, save_at=[6])):
            with pytest.raises(ValueError):
                simulate_ensemble(**{**run, **change}, resume=state)

    @pytest.mark.parametrize("change", [dict(save_at=[-1]),
                                        dict(beta=constant_control(1.0)),
                                        dict(save_at=[21])])
    def test_bad_save_raises(self, ex34_spec, ex34_control, change):
        grid = make_grid(1.0, self.DT, 2.0)
        kwargs = {**dict(record=True, save_at=[5]), **change}
        with pytest.raises(ValueError):
            simulate_ensemble(ex34_spec, grid, ex34_control, 64, self.SEED,
                              **kwargs)


class TestNoiselessLanes:
    """simulate_noiseless(..., lanes=L) steps L controls as one lane array;
    lane i is bitwise the scalar run of the rule it sees."""

    @staticmethod
    def example(name):
        from delayctrl.examples import (Example34Params, Example35Params,
                                        ex34_feedback, ex34_p0_star,
                                        ex35_feedback, make_ex34_problem,
                                        make_ex35_problem)
        if name == "3.4":
            params = Example34Params()
            p0 = ex34_p0_star(params)
            return (make_ex34_problem(params, u_hi=50.0), params,
                    ex34_feedback, [0.5 * p0, p0, 1.7 * p0])
        # below K = 3.19... the composite wealth crosses zero and the
        # control clips at 0
        return (make_ex35_problem(Example35Params(), u_hi=1e12),
                Example35Params(), ex35_feedback, [2.5, 3.192668142, 3.5])

    @pytest.mark.parametrize("name", ["3.4", "3.5"])
    def test_lanes_match_scalar_runs(self, name):
        spec, params, feedback, p0s = self.example(name)
        grid = make_grid(1.0, 0.05, 30.0)
        lanes = simulate_noiseless(spec, grid, feedback(params, p0s),
                                   lanes=len(p0s))
        assert lanes.X.shape == lanes.A.shape == (len(p0s), grid.n + 1)
        for i, p0 in enumerate(p0s):
            one = simulate_noiseless(spec, grid, feedback(params, p0))
            for key in ("X", "Y", "A", "u"):
                assert np.array_equal(getattr(lanes, key)[i],
                                      getattr(one, key)), (key, i)
            assert lanes.clipped[i] == one.clipped

    def test_nonfinite_lane_runs_on(self):
        """A lane that overflows keeps running with non-finite values where
        its scalar run raises NonFiniteState; the other lanes are
        untouched."""
        spec = _brownian_spec(b=lambda t, x, y, a, u: u * np.asarray(x, float),
                              u_hi=np.inf)
        grid = make_grid(0.2, 0.1, 1.0)
        rates = [0.1, 1e308, 0.2]
        lanes = simulate_noiseless(
            spec, grid, feedback_control(lambda t, x, y, a: np.array(rates)),
            lanes=3)
        assert not np.all(np.isfinite(lanes.X[1]))
        for i in (0, 2):
            one = simulate_noiseless(
                spec, grid, feedback_control(lambda t, x, y, a: rates[i]))
            assert np.array_equal(lanes.X[i], one.X)
            assert np.array_equal(lanes.A[i], one.A)
        with pytest.raises(NonFiniteState), np.errstate(over="ignore"):
            simulate_noiseless(
                spec, grid, feedback_control(lambda t, x, y, a: rates[1]))


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

    def test_convergence_orders(self, ex34_det_spec):
        """Observed orders of the max error on [0, 10] as dt halves:
        Heun (simulate_noiseless) is second order, the engine at
        sigma = 0 (Euler) first order."""
        from delayctrl.examples import (Example34Params, ex34_feedback,
                                        ex34_p0_star, ex34_state)
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        control = ex34_feedback(params, p0)
        errors = {"heun": [], "engine": []}
        for dt in (0.04, 0.02, 0.01, 0.005):
            grid = make_grid(1.0, dt, 10.0)
            exact = ex34_state(params, grid.times, p0)
            heun = simulate_noiseless(ex34_det_spec, grid, control).X
            engine = simulate_ensemble(ex34_det_spec, grid, control, 1, 0,
                                       record=True).arrays["X"][0]
            errors["heun"].append(np.max(np.abs(heun - exact)))
            errors["engine"].append(np.max(np.abs(engine - exact)))
        for name, order in (("heun", 2.0), ("engine", 1.0)):
            observed = np.log2(np.divide(errors[name][:-1], errors[name][1:]))
            np.testing.assert_allclose(observed, order, atol=0.1,
                                       err_msg=name)

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
