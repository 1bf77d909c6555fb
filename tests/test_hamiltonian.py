"""Hamiltonian evaluation, gradients, maximization, and the delay Ito
residual check."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayctrl import adjoint, build_problem, make_grid
from delayctrl.errors import NonFinite
from delayctrl.examples import (Example35Params, ex35_feedback,
                                make_ex35_problem)
from delayctrl.forward import (StepAccumulator, constant_control,
                               simulate_ensemble)
from delayctrl.hamiltonian import (
    HamArgs,
    ItoTestFunction,
    _ItoResidualAccumulator,
    eval_H,
    grad_H,
    ito_delay_residual,
    maximize_scalar,
    nu_theta_r,
)
from delayctrl.forward import simulate_noiseless, update_moving_average
from delayctrl.model import DiscreteMarks, JumpModel
from delayctrl.objective import mean_stderr

from conftest import make_jump_spec


class TestEvaluation:
    def test_h1_hand_value(self, ex34_spec):
        # H1 = f + b p + sigma q at t=0, x=1, u=0.15
        args = HamArgs(t=0.0, x=1.0, y=1.0, a=1.0, u=0.15, p=2.0, q=0.5)
        f = 0.15 ** 0.5 / 0.5
        b = 0.05 - 0.15
        sig = 0.05
        expected = f + b * 2.0 + sig * 0.5
        assert eval_H(ex34_spec, args) == pytest.approx(expected, rel=1e-12)

    def test_h2_reduces_to_h1_with_zero_extras(self, ex34_spec):
        a1 = HamArgs(t=0.5, x=1.2, y=0.9, a=1.1, u=0.2, p=1.5, q=0.3)
        a2 = HamArgs(t=0.5, x=1.2, y=0.9, a=1.1, u=0.2, p=1.5, q=0.3,
                     p2=0.0)
        assert eval_H(ex34_spec, a2) == pytest.approx(
            float(eval_H(ex34_spec, a1)), rel=1e-14)

    def test_h2_averaging_term(self, ex34_spec):
        lam = ex34_spec.lambda_avg
        a2 = HamArgs(t=0.0, x=2.0, y=1.0, a=0.5, u=0.2, p=0.0, q=0.0,
                     p2=3.0)
        base = HamArgs(t=0.0, x=2.0, y=1.0, a=0.5, u=0.2, p=0.0, q=0.0,
                       p2=0.0)
        diff = float(eval_H(ex34_spec, a2)) - float(eval_H(ex34_spec, base))
        expected = (2.0 - lam * 1.0
                    - np.exp(-lam * ex34_spec.delta) * 0.5) * 3.0
        assert diff == pytest.approx(expected, rel=1e-12)

    def test_jump_term_discrete_marks(self):
        spec = make_jump_spec(intensity=2.0)
        val = nu_theta_r(spec, 0.0, 1.0, 1.0, 1.0, 0.0, lambda z: z)
        # intensity * E[theta(z) z] = 2 * E[x z^2] = 2 * (0.5*0.01 + 0.5*0.04)
        assert val == pytest.approx(2.0 * 0.025, rel=1e-12)

    def test_nonfinite_raises_unless_disabled(self, ex34_spec):
        args = HamArgs(t=0.0, x=-1.0, y=1.0, a=1.0, u=0.15, p=1.0, q=0.0)
        with pytest.raises(NonFinite):
            eval_H(ex34_spec, args)
        val = eval_H(ex34_spec, args, check=False)
        assert not np.isfinite(val)


class TestGradients:
    @given(x=st.floats(0.2, 3.0), u=st.floats(0.02, 0.9),
           p=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_grad_u_matches_fd(self, ex34_spec, x, u, p):
        args = HamArgs(t=0.3, x=x, y=x, a=x, u=u, p=p, q=0.4)
        g = float(grad_H(ex34_spec, args, "u"))
        h = 1e-6 * max(1.0, u)
        from dataclasses import replace

        fd = (float(eval_H(ex34_spec, replace(args, u=u + h)))
              - float(eval_H(ex34_spec, replace(args, u=u - h)))) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_grad_x_closed_form(self, ex34_spec):
        args = HamArgs(t=0.0, x=2.0, y=2.0, a=2.0, u=0.2, p=1.0, q=0.3)
        # dH/dx = f_x + (mu - u) p + sigma0 q
        f_x = 0.2 ** 0.5 * 2.0 ** (-0.5)
        expected = f_x + (0.05 - 0.2) * 1.0 + 0.05 * 0.3
        assert float(grad_H(ex34_spec, args, "x")) == pytest.approx(
            expected, rel=1e-10)

    def test_grad_formulation2_extra_term(self, ex34_spec):
        lam = ex34_spec.lambda_avg
        args = HamArgs(t=0.0, x=1.0, y=1.0, a=1.0, u=0.2, p=1.0, q=0.0,
                       p2=2.0)
        base = HamArgs(t=0.0, x=1.0, y=1.0, a=1.0, u=0.2, p=1.0, q=0.0,
                       p2=0.0)
        gx = float(grad_H(ex34_spec, args, "x"))
        gx0 = float(grad_H(ex34_spec, base, "x"))
        assert gx - gx0 == pytest.approx(2.0, rel=1e-12)
        gy = float(grad_H(ex34_spec, args, "y"))
        gy0 = float(grad_H(ex34_spec, base, "y"))
        assert gy - gy0 == pytest.approx(-lam * 2.0, rel=1e-12)

    def test_stationarity_of_closed_form(self, ex34_spec, ex34_params):
        """dH/du = 0 along the candidate at its closed-form adjoint: the
        defining first-order condition, exact at any (t, x)."""
        from delayctrl.examples import ex34_adjoint, ex34_control, ex34_p0_star

        p0 = ex34_p0_star(ex34_params)
        for t, x in [(0.0, 1.0), (1.3, 0.7), (4.0, 2.1)]:
            u = ex34_control(ex34_params, t, x, p0)
            p = float(ex34_adjoint(ex34_params, t, p0))
            args = HamArgs(t=t, x=x, y=x, a=x, u=u, p=p, q=0.0)
            assert float(grad_H(ex34_spec, args, "u")) == pytest.approx(
                0.0, abs=1e-12)


def _zero_spec(lambda_avg, delta):
    """Every coefficient zero, so H and its gradient are H2's
    moving-average term alone."""
    return build_problem({"problem": {"selector": "zero", "delta": delta,
                                      "rho": 0.1, "lambda_avg": lambda_avg}})


def _bits(value):
    return np.asarray(value, float).tobytes()


class TestAverageTermForm:
    """The form of H2's moving-average term that eval_H, grad_H and the
    second adjoint's right-hand side use, (x - lambda y - e^{-lambda
    delta} a) p2, pinned bitwise.  It reads y and a the other way round
    from the drift of the simulated A, x - lambda a - e^{-lambda delta} y
    (``TestItoResidual``); a change to it is one edit of
    ``hamiltonian._average_coefficients``, which these show."""

    RATES = [(0.1, 1.0), (0.37, 0.5), (2.0, 3.0)]
    X = np.array([2.0, -0.3, 1e-3, 7.5])
    Y = np.array([1.0, 0.9, -2.0, 3.3])
    A = np.array([0.5, 1.7, 0.25, -4.0])

    @pytest.mark.parametrize("lam, delta", RATES)
    def test_eval_H(self, lam, delta):
        spec = _zero_spec(lam, delta)
        expected = self.X - lam * self.Y - np.exp(-lam * delta) * self.A
        for x, y, a, want in [(self.X, self.Y, self.A, expected),
                              (2.0, 1.0, 0.5, expected[0])]:
            args = HamArgs(t=0.0, x=x, y=y, a=a, u=0.0, p=1.3, q=0.7, p2=1.0)
            diff = (eval_H(spec, args)
                    - eval_H(spec, dataclasses.replace(args, p2=0.0)))
            assert _bits(diff) == _bits(want)

    @pytest.mark.parametrize("lam, delta", RATES)
    def test_grad_H(self, lam, delta):
        spec = _zero_spec(lam, delta)
        partials = {"x": 1.0, "y": -lam, "a": -np.exp(-lam * delta), "u": 0.0}
        args = HamArgs(t=0.0, x=self.X, y=self.Y, a=self.A, u=0.0, p=1.3,
                       q=0.7, p2=1.0)
        for which, want in partials.items():
            coef = (grad_H(spec, args, which)
                    - grad_H(spec, dataclasses.replace(args, p2=0.0), which))
            assert _bits(coef) == _bits(np.full(4, want))

    @pytest.mark.parametrize("lambda_avg", [0.1, 0.25])
    def test_second_adjoint_rhs(self, lambda_avg):
        """The solve is bitwise backward Heun on -(f_x + b_x p1 + p2),
        -(f_y + b_y p1 - lambda p2), -(f_a + b_a p1 - e^{-lambda delta} p2)
        along the noiseless path, with p1, p2 and p3 away from zero at
        t = 0 (alpha is not the matched one, which makes p3 vanish)."""
        params = Example35Params(sigma0=0.0, lambda_avg=lambda_avg, alpha=0.2)
        spec = make_ex35_problem(params)
        control = ex35_feedback(params, 3.0)
        grid = make_grid(1.0, 0.05, 5.0)
        rec = simulate_noiseless(spec, grid, control)
        P = adjoint._coefficient_partial_arrays(
            spec, grid, {"X": rec.X, "Y": rec.Y, "A": rec.A, "u": rec.u})
        lam, e_ld = spec.lambda_avg, np.exp(-spec.lambda_avg * spec.delta)

        def rhs(k, p):
            p1, p2, _ = p
            return np.array([-(P["f_x"][k] + P["b_x"][k] * p1 + p2),
                             -(P["f_y"][k] + P["b_y"][k] * p1 - lam * p2),
                             -(P["f_a"][k] + P["b_a"][k] * p1 - e_ld * p2)])

        p, ref = np.zeros(3), np.zeros((grid.n + 1, 3))
        for k in range(grid.n - 1, -1, -1):
            g1 = rhs(k + 1, p)
            p = p - 0.5 * grid.dt * (g1 + rhs(k, p - grid.dt * g1))
            ref[k] = p
        res = adjoint.solve_second_adjoint(spec, grid, control)
        assert _bits(np.column_stack([res.p1, res.p2, res.p3])) == _bits(ref)
        assert np.all(np.abs(ref[0]) > 0.1)


class TestMaximization:
    def test_quadratic_argmax(self):
        u, v = maximize_scalar(lambda u: -(u - 0.37) ** 2, 0.0, 1.0)
        assert u == pytest.approx(0.37, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_boundary_argmax(self):
        u, _ = maximize_scalar(lambda u: 3.0 * u, 0.0, 2.0)
        assert u == pytest.approx(2.0, abs=1e-6)

    def test_maximize_H_recovers_candidate(self, ex34_spec, ex34_params):
        from delayctrl.examples import ex34_adjoint, ex34_control, ex34_p0_star

        p0 = ex34_p0_star(ex34_params)
        t, x = 0.8, 1.1
        p = float(ex34_adjoint(ex34_params, t, p0))

        def H(u):
            return float(eval_H(ex34_spec, HamArgs(t=t, x=x, y=x, a=x, u=u,
                                                   p=p, q=0.0)))

        u_star, _ = maximize_scalar(H, ex34_spec.control_lo,
                                    ex34_spec.control_hi)
        assert u_star == pytest.approx(ex34_control(ex34_params, t, x, p0),
                                       rel=1e-6)


class TestItoResidual:
    def test_quadratic_under_geometric_jump_diffusion(self):
        spec = make_jump_spec(intensity=0.5)
        grid = make_grid(0.5, 0.01, 2.0)
        F = ItoTestFunction(
            F=lambda t, x, a: x ** 2,
            F_t=lambda t, x, a: 0.0 * np.asarray(x, float),
            F_x=lambda t, x, a: 2.0 * np.asarray(x, float),
            F_xx=lambda t, x, a: 2.0 + 0.0 * np.asarray(x, float),
            F_a=lambda t, x, a: 0.0 * np.asarray(x, float),
        )
        mean, se = ito_delay_residual(spec, grid, F, constant_control(0.0),
                                      4096, 13)
        assert abs(mean) <= 3 * se + 1e-3

    def test_average_functional_steady_state(self):
        """F = a with X frozen at a constant: A converges to its fixed
        point and the generator vanishes there, so the residual is pure
        roundoff (stderr is exactly 0 across constant paths)."""
        from delayctrl import build_problem

        cfg = {
            "problem": {
                "selector": "zero", "params": {},
                "delta": 1.0, "rho": 0.1, "lambda_avg": 0.1, "discount": 0.1,
                "control_bounds": [0.0, 1.0],
                "initial_segment": {"kind": "constant", "value": 2.0},
            },
        }
        spec = build_problem(cfg)
        grid = make_grid(1.0, 0.01, 3.0)
        F = ItoTestFunction(
            F=lambda t, x, a: np.asarray(a, float),
            F_t=lambda t, x, a: 0.0 * np.asarray(x, float),
            F_x=lambda t, x, a: 0.0 * np.asarray(x, float),
            F_xx=lambda t, x, a: 0.0 * np.asarray(x, float),
            F_a=lambda t, x, a: 1.0 + 0.0 * np.asarray(x, float),
        )
        mean, se = ito_delay_residual(spec, grid, F, constant_control(0.0),
                                      16, 0)
        assert se == 0.0
        # O(dt^2) trapezoid bias only; shrinks to ~1e-10 at dt = 1e-3
        assert abs(mean) < 1e-7


    @staticmethod
    def _drift_errors(dt, rho=0.3, delta=1.0, horizon=2.0):
        """Largest gap over the grid between dA/dt, the forward difference
        of the A that ``update_moving_average`` steps along the smooth
        path X(t) = 1 + 0.5 sin 2t, and the Ito residual's drift at the
        left point, read from one step of its accumulator with F = a."""
        spec = _zero_spec(rho, delta)
        grid = make_grid(delta, dt, horizon)
        m, n = grid.m, grid.n
        X = 1.0 + 0.5 * np.sin(2.0 * dt * np.arange(-m, n + 1))
        # A_0 is the trapezoid integral of the initial segment, which the
        # recursion carries on
        w = np.full(m + 1, dt)
        w[[0, -1]] *= 0.5
        A = [np.sum(w * np.exp(-rho * dt * np.arange(m, -1, -1)) * X[: m + 1])]
        for k in range(n):
            A.append(update_moving_average(A[-1], X[k: k + m + 2], dt, rho))
        A = np.array(A)
        acc = _ItoResidualAccumulator(ItoTestFunction(
            F=lambda t, x, a: np.asarray(a, float),
            F_t=lambda t, x, a: np.zeros_like(x),
            F_x=lambda t, x, a: np.zeros_like(x),
            F_xx=lambda t, x, a: np.zeros_like(x),
            F_a=lambda t, x, a: np.ones_like(x)))
        st = acc.begin(n, spec, grid)
        acc.step(st, 0, {"t": 0.0, "x": X[m: m + n], "y": X[:n],
                         "a": A[:-1], "b": 0.0, "sigma": 0.0})
        return np.max(np.abs(np.diff(A) / dt - st["I"] / dt))

    def test_drift_is_the_simulated_average(self):
        """The Ito residual's drift x - lambda a - e^{-lambda delta} y is
        dA/dt of the simulated A, to first order in dt: halving dt halves
        the gap."""
        coarse, fine = self._drift_errors(0.02), self._drift_errors(0.01)
        assert coarse < 0.02
        assert 0.45 < fine / coarse < 0.55


class _CallbackIto(_ItoResidualAccumulator):
    """The residual accumulator as it was before the engine handed it b,
    sigma and theta: it calls the callbacks again, and F, F_x and the
    decay once per use."""

    def step(self, st, k, ctx):
        spec, F = st["spec"], self.Ffun
        t, x, y, a, u = ctx["t"], ctx["x"], ctx["y"], ctx["a"], ctx["u"]
        if st["F0"] is None:
            st["F0"] = np.asarray(F.F(t, x, a), float) + np.zeros_like(x)
        c = spec.coeffs
        lam = spec.lambda_avg
        gen = (F.F_t(t, x, a)
               + c.b(t, x, y, a, u) * F.F_x(t, x, a)
               + 0.5 * c.sigma(t, x, y, a, u) ** 2 * F.F_xx(t, x, a)
               + (x - lam * a - np.exp(-lam * spec.delta) * y) * F.F_a(t, x, a))
        if spec.has_jumps:
            def comp(z):
                th = c.theta(t, x, y, a, u, z)
                return (F.F(t, x + th, a) - F.F(t, x, a)
                        - th * F.F_x(t, x, a))
            gen = gen + spec.jump.nu_integral(comp)
        st["I"] += st["grid"].dt * np.asarray(gen, float)


def _scalar_sigma(spec):
    """The spec with sigma a Python float, theta a Python float per mark."""
    coeffs = dataclasses.replace(
        spec.coeffs, sigma=lambda t, x, y, a, u: 0.3 + 0.0 * t,
        theta=lambda t, x, y, a, u, z: 0.7 * float(z))
    return dataclasses.replace(spec, coeffs=coeffs)


class TestItoReusesTheStepValues:
    """The accumulator reads b, sigma and theta from the step's context;
    its residuals are bitwise those of calling the callbacks again."""

    F = ItoTestFunction(
        F=lambda t, x, a: x ** 3 + 0.5 * a * x,
        F_t=lambda t, x, a: 0.0 * np.asarray(x, float),
        F_x=lambda t, x, a: 3.0 * x ** 2 + 0.5 * a,
        F_xx=lambda t, x, a: 6.0 * np.asarray(x, float),
        F_a=lambda t, x, a: 0.5 * np.asarray(x, float))

    @pytest.mark.parametrize("case", ["jumps", "three_marks", "no_jumps",
                                      "scalar_sigma"])
    def test_bitwise_the_callback_accumulator(self, case):
        spec = make_jump_spec(intensity=2.0)
        if case == "three_marks":
            # unequal weights: a mark paired with another's theta shows
            spec = dataclasses.replace(spec, jump=JumpModel(
                intensity=2.0, marks=DiscreteMarks(
                    values=np.array([-0.1, 0.2, 0.05]),
                    probs=np.array([0.2, 0.5, 0.3]))))
        elif case == "no_jumps":
            spec = dataclasses.replace(spec, jump=None)
        elif case == "scalar_sigma":
            spec = _scalar_sigma(spec)
        grid = make_grid(0.5, 0.01, 1.0)
        control = constant_control(0.2)
        n_paths, seed = 1024 + 37, 6
        res = [simulate_ensemble(spec, grid, control, n_paths, seed,
                                 accumulators=(acc(self.F),)).extras[0]
               for acc in (_ItoResidualAccumulator, _CallbackIto)]
        assert np.isfinite(res[0]).all()
        assert res[0].tobytes() == res[1].tobytes()
        mean, se = ito_delay_residual(spec, grid, self.F, control, n_paths,
                                      seed)
        assert (mean, se) == mean_stderr(res[1])

    def test_scalar_sigma_is_handed_over_as_returned(self):
        seen = []

        class Spy(StepAccumulator):
            def begin(self, n_lanes, spec, grid):
                return {}

            def step(self, st, k, ctx):
                seen.append((type(ctx["sigma"]), ctx["theta_marks"].shape))

            def finish(self, st, ctx):
                return np.zeros(0)

        spec = _scalar_sigma(make_jump_spec(intensity=2.0))
        simulate_ensemble(spec, make_grid(0.5, 0.1, 0.5), constant_control(0.2),
                          5, 0, accumulators=(Spy(),))
        assert seen == [(float, (2, 5))] * 5
