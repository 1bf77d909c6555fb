"""Closed-form benchmark families: constants, state flows, and
coefficient bundles."""

import numpy as np
import pytest
from scipy.integrate import quad

from delayctrl import make_grid
from delayctrl.errors import DivergentIntegral
from delayctrl.examples import (
    Example34Params,
    Example35Params,
    coefficients_ex34,
    ex34_adjoint,
    ex34_control,
    ex34_feedback,
    ex34_objective,
    ex34_p0_star,
    ex34_state,
    ex35_K,
    ex35_adjoint,
    ex35_alpha_residual,
    ex35_feedback,
    ex35_matched_alpha,
    make_ex34_problem,
    make_ex35_problem,
)


class TestConsumptionClosedForm:
    def test_p0_star_value(self):
        params = Example34Params()
        # kappa = mu + (rho - mu)/(1 - gamma) = 0.15; I = 1/kappa;
        # p0 = (X0 * kappa)^(gamma - 1) = 0.15^(-1/2)
        assert ex34_p0_star(params) == pytest.approx(0.15 ** -0.5, rel=1e-12)

    def test_p0_star_quadrature_agrees(self):
        """The normalizing integral I = int_0^inf e^{-kappa s} ds = 1/kappa
        behind p0*, against quadrature over a long horizon T: they agree
        to 1e-6 relative plus the truncated tail e^{-kappa T} / kappa."""
        params = Example34Params(gamma=0.3, mu=0.02, rho=0.08)
        kappa = params.mu + (params.rho - params.mu) / (1.0 - params.gamma)
        T = 400.0
        num, _ = quad(lambda s: np.exp(-kappa * s), 0.0, T)
        assert abs(num - 1.0 / kappa) <= 1e-6 / kappa + np.exp(-kappa * T) / kappa
        assert ex34_p0_star(params) == pytest.approx(
            (params.X0 / num) ** (params.gamma - 1.0), rel=1e-6)

    def test_p0_star_refuses_divergent_integral(self):
        # kappa = 0.5 + (0.1 - 0.5) / 0.5 = -0.3
        params = Example34Params(gamma=0.5, mu=0.5, rho=0.1)
        with pytest.raises(DivergentIntegral, match="diverges"):
            ex34_p0_star(params)

    def test_state_flow_solves_ode(self):
        params = Example34Params()
        p0 = ex34_p0_star(params)
        t = np.linspace(0.0, 5.0, 11)
        x = ex34_state(params, t, p0)
        h = 1e-6
        dx = (ex34_state(params, t + h, p0) - ex34_state(params, t - h, p0)) / (2 * h)
        # consumption c(t) = u(t, x) x, the same for every x > 0
        rhs = params.mu * x - ex34_control(params, t, 1.0, p0)
        np.testing.assert_allclose(dx, rhs, atol=1e-8)

    def test_objective_closed_form_matches_quadrature(self):
        params = Example34Params()
        p0 = ex34_p0_star(params)

        def integrand(t):
            # c(t) = u(t, x) x, the same for every x > 0
            return (np.exp(-params.rho * t)
                    * ex34_control(params, t, 1.0, p0) ** params.gamma
                    / params.gamma)

        target, _ = quad(integrand, 0.0, 400.0, limit=400)
        assert ex34_objective(params, p0) == pytest.approx(target, rel=1e-8)

    def test_feedback_reproduces_pointwise_rule(self):
        params = Example34Params()
        p0 = ex34_p0_star(params)
        spec = make_ex34_problem(params, u_hi=50.0)
        ctl = ex34_feedback(params, p0)
        x = np.array([0.5, 1.0, 2.0])
        u, _ = ctl.evaluate(spec, 0, 0.7, x, x, x)
        expected = [ex34_control(params, 0.7, xi, p0) for xi in x]
        np.testing.assert_allclose(u, expected, rtol=1e-12)

    def test_adjoint_decay(self):
        params = Example34Params()
        p0 = ex34_p0_star(params)
        t = np.array([0.0, 2.0])
        p = ex34_adjoint(params, t, p0)
        assert p[0] == pytest.approx(p0)
        assert p[1] == pytest.approx(p0 * np.exp(-2 * params.mu))


class TestRecruitmentClosedForm:
    def test_matched_alpha_identity(self):
        params = Example35Params()
        edb = params.edb
        expected = edb * (params.mu + params.lambda_avg + edb)
        assert ex35_matched_alpha(params) == pytest.approx(expected, rel=1e-12)

    def test_alpha_residual_zero_when_matched(self):
        assert ex35_alpha_residual(Example35Params()) == pytest.approx(0.0,
                                                                      abs=1e-14)

    def test_alpha_residual_nonzero_when_perturbed(self):
        params = Example35Params()
        bad = Example35Params(alpha=1.1 * ex35_matched_alpha(params))
        assert abs(ex35_alpha_residual(bad)) > 1e-4

    def test_adjoint_decay_rate(self):
        params = Example35Params()
        t = np.array([0.0, 1.0, 3.0])
        p1 = ex35_adjoint(params, t, 1.7)
        rate = params.mu + params.edb
        np.testing.assert_allclose(p1, 1.7 * np.exp(-rate * t), rtol=1e-12)

    @pytest.mark.slow  # runs the ex35_K search
    def test_K_is_deterministic_and_positive(self):
        params = Example35Params()
        k1 = ex35_K(params)
        k2 = ex35_K(params)
        assert k1 == k2
        assert k1 > 0

    def test_K_search_propagates_unexpected_errors(self, monkeypatch):
        """Only a non-finite state counts as wealth not staying positive;
        any other error in the integration surfaces."""
        from delayctrl import examples

        def broken(*args, **kwargs):
            raise TypeError("broken integration")

        monkeypatch.setattr(examples, "simulate_noiseless", broken)
        with pytest.raises(TypeError, match="broken integration"):
            ex35_K(Example35Params())

    @pytest.mark.parametrize("search", [
        {"T_search": 80, "dt": 0.1},
        # both bracket ends must move first
        {"T_search": 40, "dt": 0.1, "bracket_lo": 3.5, "bracket_hi": 1.0},
    ])
    def test_K_search_matches_scalar_bisection(self, search, monkeypatch):
        """The lane search walks the brackets of one scalar run per
        bisection level, K_SEARCH_LEVELS levels per noiseless pass, and
        returns the same K bitwise."""
        from delayctrl import examples
        from delayctrl.errors import NonFiniteState
        from delayctrl.forward import simulate_noiseless

        params = Example35Params()
        spec = make_ex35_problem(params, u_hi=1e12)
        grid = make_grid(params.delta, search["dt"], search["T_search"])

        def stays_positive(p0):
            try:
                rec = simulate_noiseless(spec, grid, ex35_feedback(params, p0))
            except NonFiniteState:
                return False
            W = rec.X + rec.Y * params.edb
            return bool(np.all(np.isfinite(W)) and np.all(W > 0))

        p_lo = search.get("bracket_lo", 1e-3)
        p_hi = search.get("bracket_hi", 4.0)
        moves = 0
        while not stays_positive(p_hi):
            p_hi *= 2.0
            moves += 1
        while stays_positive(p_lo):
            p_lo *= 0.5
            moves += 1
        levels = 0
        while p_hi - p_lo > 1e-6:
            mid = 0.5 * (p_lo + p_hi)
            if stays_positive(mid):
                p_hi = mid
            else:
                p_lo = mid
            levels += 1

        passes = []

        def counted(*args, **kwargs):
            passes.append(kwargs.get("lanes"))
            return simulate_noiseless(*args, **kwargs)

        monkeypatch.setattr(examples, "simulate_noiseless", counted)
        assert ex35_K(params, search) == 0.5 * (p_lo + p_hi)
        # the first pass checks the bracket ends and, when neither moves,
        # carries the first levels too
        tree_passes = -(-levels // examples.K_SEARCH_LEVELS)
        assert len(passes) == (tree_passes if moves == 0
                               else 1 + moves + tree_passes)

    @pytest.mark.parametrize("tol", [1e-15, 1e-300])
    def test_K_search_ends_when_the_bracket_cannot_split(self, tol):
        """A tol below the bracket's float spacing ends the search where
        its midpoint is one of its ends, at the K of a scalar bisection
        that stops there; a tol the spacing does not reach ends as
        before.  The search runs in a child process with a time bound."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        from delayctrl.errors import NonFiniteState
        from delayctrl.forward import simulate_noiseless

        search = {"T_search": 20, "dt": 0.1, "tol": tol}
        code = ("import json, sys; from delayctrl.examples import "
                "Example35Params, ex35_K; print(repr(ex35_K("
                "Example35Params(), json.loads(sys.argv[1]))))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(search)],
                              capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        K = float(proc.stdout)

        params = Example35Params()
        spec = make_ex35_problem(params, u_hi=1e12)
        grid = make_grid(params.delta, search["dt"], search["T_search"])

        def stays_positive(p0):
            try:
                rec = simulate_noiseless(spec, grid, ex35_feedback(params, p0))
            except NonFiniteState:
                return False
            W = rec.X + rec.Y * params.edb
            return bool(np.all(np.isfinite(W)) and np.all(W > 0))

        p_lo, p_hi = 1e-3, 4.0
        assert stays_positive(p_hi) and not stays_positive(p_lo)
        while p_hi - p_lo > tol:
            mid = 0.5 * (p_lo + p_hi)
            if mid in (p_lo, p_hi):
                break
            if stays_positive(mid):
                p_hi = mid
            else:
                p_lo = mid
        assert K == 0.5 * (p_lo + p_hi)
        assert (np.nextafter(p_lo, np.inf) == p_hi) == (tol < 1e-200)

    @pytest.mark.slow  # runs the ex35_K search
    def test_K_keeps_deterministic_flow_positive(self):
        """The searched constant keeps the noiseless wealth path positive
        over a long window."""
        from delayctrl.forward import simulate_noiseless

        params = Example35Params()
        K = ex35_K(params)
        spec = make_ex35_problem(params)
        grid = make_grid(params.delta, 0.01, 40.0)
        rec = simulate_noiseless(spec, grid, ex35_feedback(params, K))
        assert np.min(rec.X) > 0.0


class TestCoefficientBundles:
    def test_ex34_partials_match_fd(self):
        coeffs = coefficients_ex34(Example34Params())
        t, x, y, a, u = 0.4, 1.3, 1.1, 0.9, 0.2
        for name in ("b", "f"):
            fn = coeffs.fn(name)
            for var, point in (("x", x), ("u", u)):
                h = 1e-6
                args = {"x": x, "y": y, "a": a, "u": u}
                hi = dict(args); hi[var] = point + h
                lo = dict(args); lo[var] = point - h
                fd = (fn(t, hi["x"], hi["y"], hi["a"], hi["u"])
                      - fn(t, lo["x"], lo["y"], lo["a"], lo["u"])) / (2 * h)
                an = coeffs.partial(name, var)(t, x, y, a, u)
                assert float(an) == pytest.approx(float(fd), rel=1e-5)

    def test_ex35_wealth_argument(self):
        params = Example35Params()
        spec = make_ex35_problem(params)
        # b = mu x + alpha y + beta a - u (x + e^{rho delta} beta y)
        edb = params.edb
        alpha = ex35_matched_alpha(params)
        val = spec.coeffs.b(0.0, 1.0, 2.0, 3.0, 0.1)
        expected = (params.mu * 1.0 + alpha * 2.0 + params.beta * 3.0
                    - 0.1 * (1.0 + edb * 2.0))
        assert float(val) == pytest.approx(expected, rel=1e-12)

    def test_power_domain_guard(self):
        coeffs = coefficients_ex34(Example34Params())
        val = coeffs.f(0.0, np.array([-1.0]), np.array([1.0]),
                       np.array([1.0]), np.array([0.5]))
        assert not np.isfinite(val[0])
