"""Hamiltonian evaluation, gradients, maximization, and the delay Ito
residual check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayctrl import make_grid
from delayctrl.errors import NonFinite
from delayctrl.forward import constant_control
from delayctrl.hamiltonian import (
    HamArgs,
    ItoTestFunction,
    eval_H,
    grad_H,
    ito_delay_residual,
    maximize_scalar,
    nu_theta_r,
)

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
