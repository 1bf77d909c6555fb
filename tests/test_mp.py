"""Maximum-principle verification machinery: sufficiency, necessity, and
variational consistency."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from delayctrl import build_problem, make_grid
from delayctrl import mp
from delayctrl.adjoint import SecondAdjointResult, p3_flatness
from delayctrl.errors import BadWindow, ConfigError
from delayctrl.examples import (
    Example34Params,
    ex34_adjoint,
    ex34_feedback,
    ex34_p0_star,
    make_ex34_problem,
)
from delayctrl.forward import (
    BLOCK_SIZE,
    StepAccumulator,
    bump_control,
    bump_start_step,
    constant_control,
    feedback_control,
    scale_control,
    simulate_ensemble,
)
from delayctrl.hamiltonian import HamArgs, grad_H
from delayctrl.mp import (
    StateAtStepsAccumulator,
    StatePointsAccumulator,
    _adjoint_values,
    _gateaux_terms,
    check_sufficient_first,
    check_sufficient_second,
    necessary_residual,
    variational_consistency,
)
from delayctrl.objective import RunningRewardAccumulator, mean_stderr

from conftest import make_jump_spec


@pytest.fixture(scope="module")
def setup():
    params = Example34Params(sigma0=0.05)
    p0 = ex34_p0_star(params)
    spec = make_ex34_problem(params, delta=1.0, u_hi=50.0)
    ctl = ex34_feedback(params, p0)
    adj = lambda t, x, y, a: ex34_adjoint(params, t, p0)
    return params, p0, spec, ctl, adj


class TestSufficientFirst:
    def test_passes_at_candidate(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        mc = dict(n_paths=1024, seed=7)
        report = check_sufficient_first(spec, grid, ctl,
                                        [scale_control(ctl, 0.8)], adj, mc)
        assert report.verdict == "pass"
        assert report.concavity["passed"]
        assert report.integrability["finite"]
        # conditional maximization: no positive gap beyond noise
        assert all(g["gap"] <= 2 * g["stderr"] + 1e-9
                   for g in report.max_gap)

    def test_transversality_ladder_positive(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        mc = dict(n_paths=1024, seed=7)
        report = check_sufficient_first(spec, grid, ctl,
                                        [scale_control(ctl, 0.8)], adj, mc)
        # the lower-consumption comparison accumulates extra wealth, so
        # E[p(T)(X_u - X_hat)] > 0 at every rung
        for rec in report.transversality:
            assert rec["estimate"] >= -2 * rec["stderr"]

    def test_fails_at_wrong_candidate(self, setup):
        """A constant control far from the maximizer leaves a positive
        conditional gap and the verdict flips."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        mc = dict(n_paths=512, seed=7)
        report = check_sufficient_first(spec, grid, constant_control(0.6),
                                        [ctl], adj, mc)
        assert report.verdict == "fail"
        assert max(g["gap"] for g in report.max_gap) > 0.0


class TestSufficientSecond:
    def _closed_form_triple(self, params, p0, grid):
        n = grid.n
        t = grid.times
        z = np.zeros(n + 1)
        return SecondAdjointResult(grid=grid, p1=ex34_adjoint(params, t, p0),
                                   p2=z.copy(), p3=z.copy(), q1=z.copy(),
                                   q2=z.copy(), r=np.zeros((n + 1, 1)))

    def test_passes_with_closed_form_triple(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        sar = self._closed_form_triple(params, p0, grid)
        mc = dict(n_paths=1024, seed=7)
        report = check_sufficient_second(spec, grid, ctl,
                                         [scale_control(ctl, 0.8)], sar, mc)
        assert report.verdict == "pass"
        assert report.p3_check["flat"]

    def test_agrees_with_first_check_when_p2_vanishes(self, setup):
        """With p2 = p3 = q1 = 0 and p1 the closed-form p, both checks
        measure the same Hamiltonian on the same ensemble."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        comparisons = [scale_control(ctl, 0.8)]
        mc = dict(n_paths=256, seed=7)
        first = check_sufficient_first(spec, grid, ctl, comparisons, adj, mc)
        sar = self._closed_form_triple(params, p0, grid)
        second = check_sufficient_second(spec, grid, ctl, comparisons, sar, mc)
        close = dict(rel=1e-12, abs=0.0)
        assert len(first.transversality) == len(second.transversality)
        assert len(first.max_gap) == len(second.max_gap)
        for r1, r2 in zip(first.transversality, second.transversality):
            assert r2["estimate"] == pytest.approx(r1["estimate"], **close)
            assert r2["stderr"] == pytest.approx(r1["stderr"], **close)
        for g1, g2 in zip(first.max_gap, second.max_gap):
            for key in ("gap", "stderr", "maximizer"):
                assert g2[key] == pytest.approx(g1[key], **close)
        assert second.concavity["max_eigenvalue"] == pytest.approx(
            first.concavity["max_eigenvalue"], **close)
        assert first.integrability["estimate"] > 0.0
        assert second.integrability["estimate"] == pytest.approx(
            first.integrability["estimate"], **close)


def _scalar_hessian_proxy(spec, grid, steps, points, adjoint_eval):
    """The concavity proxy one point and one perturbed copy at a time: the
    reference of the batched mp._hessian_proxy."""
    h = 1e-5
    worst = -np.inf
    for k, values in zip(steps, points):
        if not np.all(np.isfinite(values)):
            continue
        t = k * grid.dt
        p, q, p2 = adjoint_eval(t, *values[:3])
        H = np.empty((4, 4))
        for j in range(4):
            up, down = values.copy(), values.copy()
            up[j] += h
            down[j] -= h
            for i, var in enumerate("xyau"):
                g_up, g_down = (grad_H(spec, HamArgs(t, *pt, p=p, q=q, p2=p2),
                                       var, check=False)
                                for pt in (up, down))
                H[i, j] = (g_up - g_down) / (2 * h)
        H = 0.5 * (H + H.T)
        if np.all(np.isfinite(H)):
            worst = max(worst, float(np.max(np.linalg.eigvalsh(H))))
    return worst


class TestHessianProxy:
    """The batched concavity proxy gives the scalar loop's maximum
    eigenvalue bit for bit, on both formulations, skipping points that
    are not finite or leave the coefficients' domain."""

    @pytest.fixture(scope="class", params=["ex34", "jumps"])
    def sampled(self, request, setup):
        if request.param == "jumps":  # finite-difference partials
            spec, ctl, adj = _wavy_jump_problem()
        else:
            params, p0, spec, ctl, adj = setup
        grid = make_grid(spec.delta, 0.05, 5.0)
        S = simulate_ensemble(spec, grid, ctl, 64, 3, record=True).arrays
        rng = np.random.default_rng(0)
        paths = rng.integers(0, 64, mp._HESSIAN_SAMPLES)
        steps = rng.integers(0, grid.n + 1, mp._HESSIAN_SAMPLES)
        points = np.stack([S[key][paths, steps] for key in "XYAu"], axis=1)
        points[3, 1] = np.nan  # skipped point
        if request.param == "ex34":
            points[9, 0] = -points[9, 0]  # f_x is NaN: skipped Hessian
        return spec, grid, steps, points, adj

    @pytest.mark.parametrize("formulation", ["first", "second"])
    def test_matches_scalar_loop(self, sampled, formulation):
        spec, grid, steps, points, adj = sampled
        if formulation == "first":
            def adjoint_eval(t, x, y, a):
                return (*_adjoint_values(adj, t, x, y, a), None)
        else:
            t = grid.times

            def adjoint_eval(t_k, x, y, a):
                k = min(grid.n, int(round(t_k / grid.dt)))
                return (np.exp(-0.1 * t[k]), 0.01 * t[k], 0.3 * np.cos(t[k]))
        want = _scalar_hessian_proxy(spec, grid, steps, points, adjoint_eval)
        got = mp._hessian_proxy(spec, grid, steps, points, adjoint_eval)
        assert np.isfinite(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_no_finite_point(self, sampled):
        spec, grid, steps, points, _ = sampled
        nan = np.full_like(points, np.nan)
        assert mp._hessian_proxy(spec, grid, steps, nan, None) == -np.inf


class TestNecessary:
    def test_residual_vanishes_at_candidate(self, setup):
        """dH/du = 0 pathwise along the closed-form pair: residuals are
        at roundoff level at every probe."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        mc = dict(n_paths=1024, seed=5, bump_windows=[],
                  bump_s=())
        report = necessary_residual(spec, grid, ctl, adj, mc)
        assert report.verdict == "pass"
        assert np.max(np.abs(report.residuals)) < 1e-12
        assert report.interior_fraction > 0.99

    def test_detects_suboptimal_control(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        mc = dict(n_paths=1024, seed=5, bump_windows=[],
                  bump_s=())
        report = necessary_residual(spec, grid, scale_control(ctl, 1.2),
                                    adj, mc)
        assert report.verdict == "fail"
        r = np.asarray(report.residuals)
        se = np.asarray(report.residual_stderr)
        sig = np.abs(r) > 3 * se
        assert np.mean(sig) >= 0.8
        # consistent sign: overconsumption shows a uniformly negative
        # marginal Hamiltonian
        assert np.all(r[sig] < 0)

    def test_bump_derivatives_centered_at_zero(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        mc = dict(n_paths=2048, seed=5,
                  bump_windows=[(2.0, 2.0), (5.0, 2.0)], bump_s=(1e-2,))
        report = necessary_residual(spec, grid, ctl, adj, mc)
        assert report.verdict == "pass"
        for b in report.bump_estimates:
            assert abs(b["estimate"]) <= 3 * b["stderr"] + 1e-9

    def test_bump_antisymmetry_in_alpha(self, setup):
        """Paired CRN estimates for +alpha and -alpha are exact mirror
        images by construction."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 10.0)
        mc = dict(n_paths=512, seed=5,
                  bump_windows=[(2.0, 2.0)], bump_s=(1e-2,))
        report = necessary_residual(spec, grid, ctl, adj, mc)
        ests = {b["alpha"]: b["estimate"] for b in report.bump_estimates}
        assert ests[1.0] == pytest.approx(-ests[-1.0], rel=1e-12)

    def test_bumps_match_superposed_construction(self, setup, monkeypatch):
        """Each bump estimate equals, bitwise, the one built from full
        runs of a feedback beta = alpha 1_window superposed at +/- s,
        although the check resumes each bumped ensemble at its window;
        the mirrored pairs share their ensembles, so the check simulates
        2 |windows| |s| bump ensembles besides the candidate's."""
        import delayctrl.mp as mp
        from delayctrl.forward import feedback_control, simulate_ensemble
        from delayctrl.objective import RunningRewardAccumulator, mean_stderr

        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        # windows starting at 0, on and between grid points, and the
        # last step
        windows = [(0.0, 0.5), (0.5, 0.5), (1.33, 0.4), (2.0, 1.0),
                   (4.95, 0.05)]
        s_values = (1e-2, 1e-3)
        mc = dict(n_paths=256, seed=9, bump_windows=windows,
                  bump_s=s_values)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return simulate_ensemble(*args, **kwargs)

        monkeypatch.setattr(mp, "simulate_ensemble", spy)
        report = necessary_residual(spec, grid, ctl, adj, mc)
        monkeypatch.undo()
        assert len(calls) == 1 + 2 * len(windows) * len(s_values)

        def terms(beta, s):
            res = simulate_ensemble(
                spec, grid, mp._superpose(ctl, beta, s, grid), 256, 9,
                accumulators=(RunningRewardAccumulator(),
                              mp.StateAtStepsAccumulator((grid.n,))))
            reward, _, alive = res.extras[0]
            return reward, res.extras[1][0][:, 0] * alive

        p_T = np.broadcast_to(adj(grid.horizon, None, None, None), (256,))
        expected = []
        for ws, wh in windows:
            for alpha in (1.0, -1.0):
                def beta_rule(t, x, y, a, _ws=ws, _wh=wh, _al=alpha):
                    ind = ((np.asarray(t, float) >= _ws - 1e-12)
                           & (np.asarray(t, float) <= _ws + _wh + 1e-12))
                    return _al * ind * np.ones_like(np.asarray(x, float))
                beta = feedback_control(beta_rule)
                for s in s_values:
                    rew_p, xT_p = terms(beta, s)
                    rew_m, xT_m = terms(beta, -s)
                    diff = ((rew_p - rew_m) / (2 * s)
                            + p_T * (xT_p - xT_m) / (2 * s))
                    est, se = mean_stderr(diff)
                    expected.append({"window": (ws, wh), "alpha": alpha,
                                     "s": s, "estimate": est, "stderr": se})
        assert report.bump_estimates == expected

    def test_bump_ensembles_resume_at_their_windows(self, setup, monkeypatch):
        """With the default windows and shifts the check makes 12 bump
        calls, each resumed at the first step of its window, and no
        resumed call starts a thread (the candidate's starts its noise
        producer)."""
        import threading

        import delayctrl.mp as mp
        from delayctrl.forward import bump_start_step, simulate_ensemble

        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        calls, started = [], []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            return start(thread)

        def spy(*args, **kwargs):
            before = len(started)
            out = simulate_ensemble(*args, **kwargs)
            calls.append((args[2], kwargs.get("resume"),
                          len(started) - before))
            return out

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(mp, "simulate_ensemble", spy)
        necessary_residual(spec, grid, ctl, adj, dict(n_paths=256, seed=9))
        monkeypatch.undo()
        (_, cand_resume, cand_threads), *bumps = calls
        assert cand_resume is None and cand_threads > 0
        assert len(bumps) == 12
        steps = set()
        for control, resume, threads_started in bumps:
            ws = control.bumps[-1][1]
            assert resume.step == bump_start_step(grid, ws)
            assert resume.step == round(ws / grid.dt)
            assert threads_started == 0
            steps.add(resume.step)
        assert steps == {10, 40, 70}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bump_runs_skip_the_moving_average(self, setup, monkeypatch,
                                               threads):
        """The candidate keeps a at its probes, so it carries A; its
        resumed bump runs capture x only and skip A.  The report has the
        bytes of the check whose candidate is declared to read A, which
        makes every bump run carry it."""
        import delayctrl.forward as forward

        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        mc = dict(n_paths=2 * BLOCK_SIZE + 37, seed=9, threads=threads,
                  bump_windows=[(1.0, 0.5), (3.2, 1.0)], bump_s=(1e-2,))
        decide = forward._carries_average

        def report(candidate):
            carried = []

            def spy(*args):
                carried.append(decide(*args))
                return carried[-1]

            monkeypatch.setattr(forward, "_carries_average", spy)
            rep = necessary_residual(spec, grid, candidate, adj, mc)
            monkeypatch.undo()
            groups = len(carried) // 5  # the candidate and four bump runs
            return _report_bytes(rep), carried[:groups], carried[groups:]

        free, cand, bumps = report(ctl)
        assert all(cand) and bumps and not any(bumps)
        full, cand, bumps = report(dataclasses.replace(ctl,
                                                       reads_average=True))
        assert all(cand) and all(bumps)
        assert free == full

    def test_boundary_verdict(self, setup):
        """A candidate pinned at the upper control bound is reported as
        boundary, not as an interior failure."""
        params, p0, spec, ctl, adj = setup
        import dataclasses

        tight = dataclasses.replace(spec, control_hi=0.05)
        grid = make_grid(1.0, 0.05, 5.0)
        mc = dict(n_paths=256, seed=5, bump_windows=[],
                  bump_s=())
        report = necessary_residual(tight, grid, constant_control(0.05),
                                    adj, mc)
        assert report.verdict == "boundary"
        assert report.boundary_control

    def test_lagged_conditional_mode(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.02, 10.0)
        mc = dict(n_paths=1024, seed=5, e_t=("lagged", 1.0),
                  basis_degree=2, bump_windows=[], bump_s=())
        report = necessary_residual(spec, grid, ctl, adj, mc)
        assert report.verdict == "pass"
        assert np.max(np.abs(report.residuals)) < 1e-12

    def test_lagged_information_from_json(self, setup):
        """A JSON config gives the lag pair as a list: it runs the lagged
        check exactly as the tuple does, not the full-information one."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        candidate = scale_control(ctl, 1.2)

        def residuals(e_t):
            mc = dict(n_paths=256, seed=5, e_t=e_t,
                      bump_windows=[], bump_s=())
            return necessary_residual(spec, grid, candidate, adj, mc).residuals

        lagged = residuals(("lagged", 1.0))
        assert np.array_equal(residuals(["lagged", 1.0]), lagged)
        assert not np.allclose(residuals("full"), lagged, rtol=1e-3)

    @pytest.mark.parametrize("e_t", ["partial", ["lagged"], ("lagged", -1.0),
                                     ["delayed", 1.0], ["lagged", "1"]])
    def test_unknown_information_structure_refused(self, setup, e_t):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 3.0)
        with pytest.raises(ConfigError, match="e_t"):
            necessary_residual(spec, grid, ctl, adj, dict(n_paths=16, e_t=e_t))

    @pytest.mark.parametrize("window", [(3.0, 0.0), (1.0, 0.04),
                                        (1.0, -0.1)])
    def test_window_narrower_than_a_step_refused(self, setup, window):
        """On the grid such a window acts on one point, so its estimate
        is a trapezoid end weight, not a derivative."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 3.0)
        mc = dict(n_paths=16, bump_windows=[(1.0, 0.5), window])
        with pytest.raises(BadWindow, match=r"dt=0\.05"):
            necessary_residual(spec, grid, ctl, adj, mc)

    @pytest.mark.parametrize("window", [(7.0, 1.0), (-3.0, 1.0),
                                        (2.5, 1.0)])
    def test_window_outside_horizon_refused(self, setup, window,
                                            monkeypatch):
        """The truncated objective cannot see a bump past T (nor one before
        0), so such a window is refused before anything is simulated."""
        import delayctrl.mp as mp

        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 3.0)

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before refusing the window")

        monkeypatch.setattr(mp, "simulate_ensemble", no_simulation)
        mc = dict(n_paths=16, bump_windows=[(1.0, 0.5), window])
        with pytest.raises(BadWindow, match=r"not contained in \[0, 3\.0\]"):
            necessary_residual(spec, grid, ctl, adj, mc)

    def test_window_of_one_step_accepted(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 3.0)
        mc = dict(n_paths=16, bump_windows=[(2.95, 0.05)],
                  bump_s=(1e-2,))
        report = necessary_residual(spec, grid, ctl, adj, mc)
        assert len(report.bump_estimates) == 2


class TestSettings:
    """Each check reads and checks its mc settings before its first
    simulation: a value that would leave nothing to test (no probe, one
    at t = 0, a ladder at T = 0), divide by zero or is no list of finite
    (start, width) pairs is a ConfigError naming mc.<key>."""

    @pytest.mark.parametrize("check, key, value", [
        ("sufficient1", "horizon_fractions", [0]),
        ("sufficient1", "horizon_fractions", []),
        ("sufficient1", "horizon_fractions", [0.5, 1.5]),
        ("sufficient1", "horizon_fractions", 0.5),
        ("sufficient1", "probe_count", 0), ("sufficient1", "probe_span", -0.5),
        ("necessary", "probe_count", 0), ("necessary", "probe_count", 2.5),
        ("necessary", "probe_span", 0), ("necessary", "probe_span", 1.5),
        ("necessary", "probe_span", [0.5]), ("necessary", "bump_s", [0]),
        ("necessary", "bump_s", [1e-2, np.inf]), ("necessary", "bump_s", 1e-2),
        ("necessary", "basis_degree", -1), ("variational", "s", 0),
        ("variational", "s", -1e-3), ("variational", "s", float("nan")),
        ("variational", "s", "1e-3"), ("necessary", "bump_windows", None),
        ("necessary", "bump_windows", (1.0, 0.5)),
        ("necessary", "bump_windows", [(1.0,)]),
        ("necessary", "bump_windows", [(1.0, 0.5, 0.5)]),
        ("necessary", "bump_windows", [(1.0, "0.5")]),
        ("necessary", "bump_windows", [(1.0, True)]),
        ("necessary", "bump_windows", [(np.nan, 0.5)]),
        ("necessary", "bump_windows", [(1.0, 0.5), (1.0, np.inf)]),
        ("necessary", "bump_windows", {"start": 1.0, "width": 0.5})])
    def test_refused_before_any_simulation(self, setup, monkeypatch, check,
                                           key, value):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 3.0)
        mc = {"n_paths": 16, key: value}
        run = {
            "sufficient1": lambda: check_sufficient_first(
                spec, grid, ctl, [ctl], adj, mc),
            "necessary": lambda: necessary_residual(spec, grid, ctl, adj, mc),
            "variational": lambda: variational_consistency(
                spec, grid, ctl, constant_control(1.0), adj, mc),
        }[check]

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before refusing the setting")

        monkeypatch.setattr(mp, "simulate_ensemble", no_simulation)
        with pytest.raises(ConfigError, match=f"mc.{key} must be"):
            run()


class TestThreads:
    """mc.threads reaches every ensemble a check simulates, and the
    reports do not depend on it."""

    def _run(self, setup, threads, monkeypatch):
        import delayctrl.mp as mp
        from delayctrl.forward import simulate_ensemble

        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 3.0)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("threads"))
            return simulate_ensemble(*args, **kwargs)

        monkeypatch.setattr(mp, "simulate_ensemble", spy)
        mc = dict(n_paths=2 * 1024 + 5, seed=4, threads=threads)
        necessity = necessary_residual(spec, grid, ctl, adj, mc).as_dict()
        consistency = variational_consistency(
            spec, grid, ctl, constant_control(1.0), adj, mc)
        monkeypatch.undo()
        return seen, json.dumps([necessity, consistency])

    def test_threads_reach_every_ensemble(self, setup, monkeypatch):
        seen, report = self._run(setup, 2, monkeypatch)
        assert len(seen) == 1 + 12 + 3
        assert seen == [2] * len(seen)
        _, serial = self._run(setup, 1, monkeypatch)
        assert report == serial


class TestVariationalConsistency:
    LQ_CONFIG = {
        "problem": {
            "selector": "linear_quadratic",
            "params": {"s0": 0.1, "sx": 0.0},
            "delta": 0.5, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
            "control_bounds": [-5.0, 5.0],
            "initial_segment": {"kind": "constant", "value": 1.0},
        },
    }

    def test_linear_quadratic_exact(self):
        """Linear dynamics: the pathwise derivative is exact at any s, so
        the finite-difference and chain-rule estimates coincide to
        roundoff."""
        spec = build_problem(self.LQ_CONFIG)
        grid = make_grid(0.5, 0.02, 4.0)
        out = variational_consistency(spec, grid, constant_control(0.2),
                                      constant_control(1.0), None,
                                      dict(n_paths=256, seed=3, s=1e-2))
        assert abs(out["gap"]) < 1e-10

    def test_consumption_order_two(self):
        """Nonlinear reward: the finite-difference error decays at second
        order in s against the exact chain-rule value."""
        params = Example34Params(sigma0=0.0)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        grid = make_grid(1.0, 0.01, 10.0)
        gaps = {}
        for s in (1e-2, 1e-3):
            out = variational_consistency(
                spec, grid, constant_control(0.15), constant_control(1.0),
                lambda t, x, y, a: ex34_adjoint(params, t, p0),
                dict(n_paths=2, seed=2, s=s))
            gaps[s] = abs(out["gap"])
        order = np.log(gaps[1e-2] / gaps[1e-3]) / np.log(10.0)
        assert order >= 0.8

    def test_noisy_agreement_within_stderr(self):
        params = Example34Params(sigma0=0.05)
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        grid = make_grid(1.0, 0.05, 10.0)
        out = variational_consistency(
            spec, grid, constant_control(0.15), constant_control(1.0),
            lambda t, x, y, a: ex34_adjoint(params, t, p0),
            dict(n_paths=1024, seed=2, s=1e-3))
        bar = 2 * np.hypot(out["fd_stderr"], out["xi_stderr"])
        assert abs(out["fd_derivative"] - out["xi_based_derivative"]) <= bar


class _TerminalStateCopies(StepAccumulator):
    """The terminal-state accumulator the Gateaux terms used before the
    states-at-steps accumulator: copies of x, y, a at the final point."""

    def begin(self, n_lanes, spec, grid):
        return {}

    def step(self, st, k, ctx):
        pass

    def finish(self, st, ctx):
        return tuple(np.array(ctx[key], float, copy=True) for key in "xya")


class TestStatesAtSteps:
    """The comparison ensembles of the sufficiency ladder and the bump
    ensembles keep their states at chosen steps instead of being
    recorded, with the same bytes as reading a recorded ensemble."""

    N_PATHS = BLOCK_SIZE + 7  # two block groups with threads=2
    SEED = 3

    def _recorded(self, spec, grid, control):
        return simulate_ensemble(spec, grid, control, self.N_PATHS,
                                 self.SEED, record=True, threads=2).arrays

    def test_ladder_matches_recorded_comparison(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        n, t = grid.n, grid.times
        z = np.zeros(n + 1)
        # a non-zero p2, so that the p2 columns are not zero
        sar = SecondAdjointResult(grid=grid, p1=ex34_adjoint(params, t, p0),
                                  p2=0.3 * np.cos(t), p3=z.copy(),
                                  q1=z.copy(), q2=z.copy(),
                                  r=np.zeros((n + 1, 1)))
        comparisons = [scale_control(ctl, 0.8), constant_control(0.1)]
        fractions = (0.25, 0.5, 0.5, 0.77, 1.0)  # a rung twice
        mc = dict(n_paths=self.N_PATHS, seed=self.SEED, threads=2,
                  horizon_fractions=fractions)
        first = check_sufficient_first(spec, grid, ctl, comparisons, adj, mc)
        second = check_sufficient_second(spec, grid, ctl, comparisons, sar, mc)

        S = self._recorded(spec, grid, ctl)
        want_first, want_second = [], []
        for i, control in enumerate(comparisons):
            C = self._recorded(spec, grid, control)
            for frac in fractions:
                k = min(n, int(round(frac * n)))
                x, y, a = S["X"][:, k], S["Y"][:, k], S["A"][:, k]
                dx, dy = C["X"][:, k] - x, C["Y"][:, k] - y
                p, _ = _adjoint_values(adj, k * grid.dt, x, y, a)
                est, se = mean_stderr(p * dx)
                want_first.append({"comparison": i, "T": k * grid.dt,
                                   "estimate": est, "stderr": se})
                est, se = mean_stderr(np.broadcast_to(sar.p1[k], x.shape)
                                      * dx)
                est2, se2 = mean_stderr(np.broadcast_to(sar.p2[k], x.shape)
                                        * dy)
                want_second.append({"comparison": i, "T": k * grid.dt,
                                    "estimate": est, "stderr": se,
                                    "estimate_p2": est2, "stderr_p2": se2})
        assert first.transversality == want_first
        assert second.transversality == want_second
        assert any(r["estimate_p2"] != 0.0 for r in second.transversality)

    def test_states_equal_recorded_rows(self, setup):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        steps = (0, 7, grid.n, 7, 50)
        res = simulate_ensemble(
            spec, grid, ctl, self.N_PATHS, self.SEED, threads=2,
            accumulators=(StateAtStepsAccumulator(steps),))
        S = self._recorded(spec, grid, ctl)
        for got, key in zip(res.extras[0], "XYA", strict=True):
            assert got.shape == (self.N_PATHS, len(steps))
            assert np.array_equal(got, S[key][:, list(steps)]), key

    @pytest.mark.parametrize("threads", [1, 2])
    def test_points_equal_recorded_entries(self, setup, threads):
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        last = self.N_PATHS - 1
        paths = [0, 5, BLOCK_SIZE - 1, BLOCK_SIZE, last, last, 5]
        steps = [0, grid.n, 7, 7, 50, 0, grid.n]
        points = StatePointsAccumulator(paths, steps)
        res = simulate_ensemble(spec, grid, ctl, self.N_PATHS, self.SEED,
                                threads=threads, accumulators=(points,))
        S = self._recorded(spec, grid, ctl)
        want = np.stack([S[key][paths, steps] for key in "XYAu"], axis=1)
        assert np.array_equal(points.values(res.extras[0]), want)

    @pytest.mark.parametrize("record", [False, True])
    def test_resumed_run_captures_from_its_step(self, setup, record):
        """A saved state holds none of the run's captures, so dropping the
        result frees them while the state lives on.  A run resumed from
        it at step 40, with a bump from there, captures steps 40 on as the
        bumped full run does and leaves the earlier columns NaN."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        steps = (0, 39, 40, 41, 7, grid.n)
        later, earlier = [2, 3, 5], [0, 1, 4]

        def run(control, **kwargs):
            acc = StateAtStepsAccumulator(steps, "xyau")
            return simulate_ensemble(spec, grid, control, self.N_PATHS,
                                     self.SEED, record=record,
                                     accumulators=(acc,), **kwargs)

        saved = run(ctl, save_at=[40])
        captured = weakref.ref(saved.extras[0][0].base)
        state = saved.states[40]
        del saved
        gc.collect()
        assert captured() is None
        bumped = bump_control(ctl, 0.2, 40 * grid.dt, 1.0, grid.horizon)
        full, resumed = run(bumped), run(bumped, resume=state)
        for got, want in zip(resumed.extras[0], full.extras[0], strict=True):
            assert np.array_equal(got[:, later], want[:, later])
            assert np.isnan(got[:, earlier]).all()
        assert not np.array_equal(full.extras[0][0][:, 3],
                                  run(ctl).extras[0][0][:, 3])

    def test_gateaux_terms_bytes_unchanged(self, setup):
        """_gateaux_terms gives the bytes of the reward accumulator plus
        copies of the terminal state."""
        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 5.0)
        shifted = bump_control(ctl, 0.01, 1.0, 0.5, grid.horizon)
        reward, x_T = _gateaux_terms(spec, grid, shifted, self.N_PATHS,
                                     self.SEED, 2)
        res = simulate_ensemble(
            spec, grid, shifted, self.N_PATHS, self.SEED, threads=2,
            accumulators=(RunningRewardAccumulator(), _TerminalStateCopies()))
        want_reward, _, alive = res.extras[0]
        assert reward.tobytes() == want_reward.tobytes()
        assert x_T.tobytes() == (res.extras[1][0] * alive).tobytes()


# ---------------------------------------------------------------------------
# The checks as computed from a fully recorded candidate: the reference
# the unrecorded checks must match byte for byte
# ---------------------------------------------------------------------------

def _recorded_sufficient(spec, grid, candidate, comparisons, mc,
                         adjoint_eval, p3_check=None):
    """mp._check_sufficient reading every state from the candidate's
    record."""
    n_paths, seed, threads = mp._mc_settings(mc)

    def recorded(control):
        return simulate_ensemble(spec, grid, control, n_paths, seed,
                                 record=True, threads=threads).arrays

    S = recorded(candidate)

    def state(k):
        return S["X"][:, k], S["Y"][:, k], S["A"][:, k]

    ladder = mc.get("horizon_fractions", (0.25, 0.5, 1.0))
    steps = [min(grid.n, int(round(frac * grid.n))) for frac in ladder]
    transversality = []
    for cmp_idx, cmp_control in enumerate(comparisons):
        C = recorded(cmp_control)
        for k in steps:
            t = k * grid.dt
            p, _, p2 = adjoint_eval(t, *state(k))
            est, se = mean_stderr(p * (C["X"][:, k] - S["X"][:, k]))
            rec = {"comparison": cmp_idx, "T": t, "estimate": est,
                   "stderr": se}
            if p2 is not None:
                rec["estimate_p2"], rec["stderr_p2"] = mean_stderr(
                    p2 * (C["Y"][:, k] - S["Y"][:, k]))
            transversality.append(rec)

    rng = np.random.default_rng(int(mc.get("seed", 0)) + 1)
    N, n1 = S["X"].shape
    idx_p = rng.integers(0, N, mp._HESSIAN_SAMPLES)
    idx_k = rng.integers(0, n1, mp._HESSIAN_SAMPLES)
    points = np.stack([S[key][idx_p, idx_k] for key in ("X", "Y", "A", "u")],
                      axis=1)
    worst = mp._hessian_proxy(spec, grid, idx_k, points, adjoint_eval)
    concavity = {"max_eigenvalue": worst, "tol": mp._CONCAVITY_TOL,
                 "passed": worst <= mp._CONCAVITY_TOL}

    stride = max(1, grid.n // 50)
    total = 0.0
    for k in range(0, grid.n + 1, stride):
        t = k * grid.dt
        x, y, a = state(k)
        u = S["u"][:, k]
        p, q, _ = adjoint_eval(t, x, y, a)
        with np.errstate(all="ignore"):
            sig = np.asarray(spec.coeffs.sigma(t, x, y, a, u), float)
        jump_sq = 0.0
        if spec.has_jumps:
            jump_sq = spec.jump.nu_integral(
                lambda z: np.asarray(spec.coeffs.theta(t, x, y, a, u, z),
                                     float) ** 2)
        total += np.nanmean(p ** 2 * (sig ** 2 + jump_sq) + q ** 2) \
            * grid.dt * stride
    integrability = {"estimate": float(total),
                     "finite": bool(np.isfinite(total))}

    max_gap, gaps_ok = [], True
    for k in mp._probe_indices(grid, mc):
        t = k * grid.dt
        x, y, a = state(k)
        gap, se, v_star = mp._gap_at_probe(spec, t, x, y, a, S["u"][:, k],
                                           adjoint_eval(t, x, y, a))
        max_gap.append({"t": float(t), "gap": gap, "stderr": se,
                        "maximizer": v_star})
        gaps_ok &= not gap > 2 * se + mp._GAP_ABS_TOL
    trans_ok = all(rec["estimate"] >= -2 * rec["stderr"] - 1e-12
                   for rec in transversality)
    ok = (gaps_ok and concavity["passed"] and integrability["finite"]
          and trans_ok and (p3_check is None or p3_check["flat"]))
    return mp.SufficiencyReport(transversality, concavity, integrability,
                                max_gap, p3_check, "pass" if ok else "fail")


def _recorded_necessary(spec, grid, candidate, adjoint, mc):
    """mp.necessary_residual reading every state from the candidate's
    record; its bump ensembles resume recorded saved states."""
    lag_steps = mp._lag_steps(mc.get("e_t", "full"), grid)
    T = grid.horizon
    windows = mc.get("bump_windows") or [(0.1 * T, 0.1 * T),
                                         (0.4 * T, 0.1 * T),
                                         (0.7 * T, 0.1 * T)]
    s_values = mc.get("bump_s", (1e-2, 1e-3))
    n_paths, seed = int(mc["n_paths"]), int(mc["seed"])
    threads = int(mc.get("threads", 1))
    first_step = {ws: bump_start_step(grid, float(ws)) for ws, _ in windows}
    cand = simulate_ensemble(spec, grid, candidate, n_paths, seed,
                             accumulators=mp._gateaux_accumulators(grid),
                             record=True, threads=threads,
                             save_at=first_step.values())
    S = cand.arrays

    ks = mp._probe_indices(grid, mc)
    resid, rse = np.empty(len(ks)), np.empty(len(ks))
    tol_b = 1e-9 * max(1.0, abs(spec.control_hi) + abs(spec.control_lo))
    boundary_hits, interior_fracs = 0, []
    for i, k in enumerate(ks):
        t = k * grid.dt
        x, y, a, u = S["X"][:, k], S["Y"][:, k], S["A"][:, k], S["u"][:, k]
        p, q = _adjoint_values(adjoint, t, x, y, a)
        with np.errstate(all="ignore"):
            g = np.asarray(grad_H(spec, HamArgs(t=t, x=x, y=y, a=a, u=u,
                                                p=p, q=q), "u", check=False),
                           float)
        ok = np.isfinite(g)
        lag = None
        if lag_steps and k - lag_steps >= 0:
            kl = k - lag_steps
            lag = (S["X"][ok, kl], S["Y"][ok, kl], S["A"][ok, kl])
        resid[i], rse[i] = mp._conditional_residual(
            g[ok], lag, int(mc.get("basis_degree", 2)))
        u_ok = u[ok]
        on_bound = ((u_ok <= spec.control_lo + tol_b)
                    | (u_ok >= spec.control_hi - tol_b))
        if u_ok.size and np.mean(on_bound) > 0.5:
            boundary_hits += 1
        interior_fracs.append(1.0 - (np.mean(on_bound) if u_ok.size else 0.0))
    boundary_control = boundary_hits > len(ks) / 2

    nn = grid.n
    p_T = np.asarray(_adjoint_values(adjoint, T, S["X"][:, nn], S["Y"][:, nn],
                                     S["A"][:, nn])[0], float)
    bump_estimates = []
    for ws, wh in windows:
        for alpha in mp._BUMP_ALPHAS:
            for s in s_values:
                rew_p, xT_p, rew_m, xT_m = (
                    v for shift in (s * alpha, -s * alpha)
                    for v in _gateaux_terms(
                        spec, grid, bump_control(candidate, shift, ws, wh,
                                                 horizon=T),
                        n_paths, seed, threads, cand.states[first_step[ws]]))
                diff = (rew_p - rew_m) / (2 * s)
                pT = p_T if p_T.shape == diff.shape else np.mean(p_T)
                est, se = mean_stderr(diff + pT * (xT_p - xT_m) / (2 * s))
                bump_estimates.append({"window": (ws, wh), "alpha": alpha,
                                       "s": s, "estimate": est, "stderr": se})
    resid_ok = np.all(np.abs(resid) <= 3 * rse + mp._RESID_ABS_TOL)
    bumps_ok = all(abs(b["estimate"]) <= 3 * b["stderr"] + mp._BUMP_ABS_TOL
                   for b in bump_estimates)
    verdict = ("boundary" if boundary_control
               else "pass" if resid_ok and bumps_ok else "fail")
    return mp.NecessityReport(
        probe_times=[float(k * grid.dt) for k in ks],
        residuals=resid.tolist(), residual_stderr=rse.tolist(),
        bump_estimates=bump_estimates,
        interior_fraction=float(np.mean(interior_fracs)),
        boundary_control=boundary_control, verdict=verdict)


def _report_bytes(report):
    return json.dumps(report.as_dict(), sort_keys=True,
                      default=lambda v: v.item())


def _wavy_jump_problem():
    """The geometric jump spec with a control in the drift, a reward that
    depends on the state and the control, a feedback candidate and a
    state-dependent adjoint."""
    spec = make_jump_spec(intensity=2.0)
    coeffs = dataclasses.replace(
        spec.coeffs,
        b=lambda t, x, y, a, u: 0.05 * x + 0.1 * y - 0.2 * u,
        f=lambda t, x, y, a, u: np.log1p(np.abs(x)) - (u - 0.3) ** 2)
    spec = dataclasses.replace(spec, coeffs=coeffs)
    ctl = feedback_control(lambda t, x, y, a: 0.3 + 0.1 * a - 0.05 * y)
    adj = lambda t, x, y, a: np.exp(-0.1 * t) * (1.0 + 0.1 * x)
    return spec, ctl, adj


class TestMatchesRecordedCandidate:
    """Each check keeps only what it reads of an unrecorded candidate,
    and its report has the bytes of the one computed from the candidate's
    full record.  Two block groups (threads 2, a partial second block)."""

    N_PATHS = BLOCK_SIZE + 7
    MC = dict(n_paths=N_PATHS, seed=5, threads=2)

    @pytest.fixture(params=["ex34", "jumps"])
    def problem(self, request, setup):
        if request.param == "jumps":
            return _wavy_jump_problem()
        params, p0, spec, ctl, adj = setup
        return spec, ctl, adj

    @pytest.mark.parametrize("extra", [
        {},
        {"e_t": ["lagged", 0.5],
         "bump_windows": [(0.0, 0.05), (1.23, 0.4), (4.5, 0.5)]},
        {"e_t": ("lagged", 0.5), "bump_windows": [(2.0, 1.0)],
         "probe_count": 7, "bump_s": (0.05,)}])
    def test_necessary(self, problem, extra):
        spec, ctl, adj = problem
        grid = make_grid(spec.delta, 0.05, 5.0)
        mc = {**self.MC, **extra}
        assert _report_bytes(necessary_residual(spec, grid, ctl, adj, mc)) \
            == _report_bytes(_recorded_necessary(spec, grid, ctl, adj, mc))

    @pytest.mark.parametrize("extra", [
        {}, {"horizon_fractions": (0.3, 0.3, 0.77, 1.0), "probe_count": 9}])
    def test_sufficient_first(self, problem, extra):
        spec, ctl, adj = problem
        grid = make_grid(spec.delta, 0.05, 5.0)
        comparisons = [scale_control(ctl, 0.8), constant_control(0.1)]
        mc = {**self.MC, **extra}

        def adjoint_eval(t, x, y, a):
            return (*_adjoint_values(adj, t, x, y, a), None)

        got = check_sufficient_first(spec, grid, ctl, comparisons, adj, mc)
        want = _recorded_sufficient(spec, grid, ctl, comparisons, mc,
                                    adjoint_eval)
        assert _report_bytes(got) == _report_bytes(want)

    def test_sufficient_second(self, problem):
        spec, ctl, _ = problem
        grid = make_grid(spec.delta, 0.05, 5.0)
        n, t = grid.n, grid.times
        sar = SecondAdjointResult(grid=grid, p1=np.exp(-0.1 * t),
                                  p2=0.3 * np.cos(t), p3=1e-3 * np.sin(t),
                                  q1=0.01 * t, q2=np.zeros(n + 1),
                                  r=np.zeros((n + 1, 1)))
        comparisons = [scale_control(ctl, 0.8)]

        def adjoint_eval(t, x, y, a):
            k = min(n, int(round(t / grid.dt)))
            return tuple(np.broadcast_to(v[k], np.shape(x))
                         for v in (sar.p1, sar.q1, sar.p2))

        flat, dev = p3_flatness(sar.p3, mp._P3_TOL)
        got = check_sufficient_second(spec, grid, ctl, comparisons, sar,
                                      self.MC)
        want = _recorded_sufficient(
            spec, grid, ctl, comparisons, self.MC, adjoint_eval,
            {"flat": flat, "max_deviation": dev})
        assert _report_bytes(got) == _report_bytes(want)


class TestMemory:
    """The checks record no ensemble: they keep the candidate's values at
    the steps and points they read and, for the necessary check, the
    increments its bump ensembles resume from.  The sufficiency check's
    traced peak stays below 0.4 times the bytes of one recorded ensemble
    and the necessary check's below 0.45 (reading the recorded candidate
    took both past 1.1).  On this grid (n = 200, m = 20) the necessary
    candidate alone holds about 0.41: its dB rows from the first window
    on (0.18), the captured columns (0.08), three saved delay rings with
    their accumulator copies (0.07), the live ring and the two 16-step
    noise chunks (0.06)."""

    BOUNDS = {"sufficient1": 0.4, "necessary": 0.45}

    @pytest.mark.parametrize("check", ["sufficient1", "necessary"])
    def test_traced_peak(self, setup, check):
        import tracemalloc

        params, p0, spec, ctl, adj = setup
        grid = make_grid(1.0, 0.05, 10.0)
        n_paths = 1024
        one = 8 * n_paths * (4 * (grid.n + 1) + grid.n)  # X, Y, A, u, dB
        mc = dict(n_paths=n_paths, seed=7)

        def run():
            if check == "sufficient1":
                check_sufficient_first(spec, grid, ctl,
                                       [scale_control(ctl, 0.8)], adj, mc)
            else:
                necessary_residual(spec, grid, ctl, adj, mc)

        run()  # first-call allocations (caches, imports) stay out
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUNDS[check] * one, (
            f"peak {peak / one:.3f}x one ensemble")
