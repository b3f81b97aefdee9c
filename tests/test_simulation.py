"""Tests for sources, Newton, integrators and the transient driver."""

import numpy as np
import pytest

import repro.simulation.integrators as integrators
from repro.errors import ConvergenceError, NumericalError, ValidationError
from repro.simulation import (
    THETA_BACKWARD_EULER,
    exponential_pulse_source,
    implicit_step,
    multitone_source,
    newton_solve,
    pulse_source,
    simulate,
    sine_source,
    stack_sources,
    step_source,
    surge_source,
    zero_source,
)
from repro.simulation.newton import JacobianCache
from repro.systems import QLDAE


@pytest.fixture
def rng():
    return np.random.default_rng(161)


class TestSources:
    def test_step(self):
        u = step_source(2.0, t_on=1.0)
        assert u(0.5) == 0.0
        assert u(1.0) == 2.0

    def test_pulse(self):
        u = pulse_source(3.0, t_on=1.0, width=0.5)
        assert u(0.9) == 0.0
        assert u(1.2) == 3.0
        assert u(1.6) == 0.0

    def test_sine_frequency(self):
        u = sine_source(1.0, frequency=0.25)  # period 4
        assert abs(u(1.0) - 1.0) < 1e-12
        assert abs(u(2.0)) < 1e-12

    def test_multitone_validates(self):
        with pytest.raises(ValidationError):
            multitone_source([1.0], [1.0, 2.0])

    def test_exponential_pulse_peak(self):
        u = exponential_pulse_source(5.0, tau_rise=0.5, tau_fall=4.0)
        ts = np.linspace(0, 20, 4001)
        vals = [u(t) for t in ts]
        assert abs(max(vals) - 5.0) < 1e-3
        assert u(-1.0) == 0.0

    def test_surge_is_positive_pulse(self):
        u = surge_source(amplitude=100.0)
        assert u(0.0) == 0.0
        ts = np.linspace(0.01, 10, 500)
        assert all(u(t) >= 0 for t in ts)

    def test_stack_sources(self):
        u = stack_sources([step_source(1.0), zero_source()])
        assert np.allclose(u(1.0), [1.0, 0.0])

    def test_exponential_pulse_validation(self):
        with pytest.raises(ValidationError):
            exponential_pulse_source(1.0, tau_rise=5.0, tau_fall=1.0)


class TestNewton:
    def test_scalar_root(self):
        res = lambda x: np.array([x[0] ** 2 - 4.0])
        jac = lambda x: np.array([[2.0 * x[0]]])
        x, iters = newton_solve(res, jac, np.array([3.0]))
        assert abs(x[0] - 2.0) < 1e-10
        assert iters > 0

    def test_already_converged(self):
        res = lambda x: np.zeros(2)
        jac = lambda x: np.eye(2)
        x, iters = newton_solve(res, jac, np.ones(2))
        assert iters == 0

    def test_divergence_raises(self):
        # No real root: x² + 1 = 0
        res = lambda x: np.array([x[0] ** 2 + 1.0])
        jac = lambda x: np.array([[2.0 * x[0]]])
        with pytest.raises(ConvergenceError):
            newton_solve(res, jac, np.array([1.0]), max_iterations=15)

    def test_singular_jacobian_raises(self):
        res = lambda x: np.array([x[0] + 1.0])
        jac = lambda x: np.array([[0.0]])
        with pytest.raises(ConvergenceError):
            newton_solve(res, jac, np.array([0.0]))

    @pytest.mark.parametrize("chord", [False, True])
    def test_non_finite_residual_raises(self, chord):
        # The dense backsolve does not scan its right-hand side: a
        # non-finite residual gives a non-finite step, which must still
        # end Newton with ConvergenceError, from a cached LU too.
        jac = lambda x: np.eye(2)
        cache = None
        if chord:
            cache = JacobianCache()
            newton_solve(lambda x: x - 1.0, jac, np.zeros(2), jac_cache=cache)
            assert cache.lu is not None
        with pytest.raises(ConvergenceError):
            newton_solve(
                lambda x: np.array([np.nan, x[1]]), jac, np.zeros(2),
                jac_cache=cache,
            )


class TestImplicitStep:
    def test_linear_exactness_order(self, rng):
        """Trapezoidal is 2nd order: halving dt quarters the error."""
        sys = QLDAE(np.array([[-1.0]]), np.array([1.0]))
        u = lambda t: np.array([1.0])

        def final_error(dt):
            x = np.zeros(1)
            steps = int(round(1.0 / dt))
            for k in range(steps):
                x, _ = implicit_step(
                    sys, x, u(k * dt), u((k + 1) * dt), dt
                )
            exact = 1.0 - np.exp(-1.0)
            return abs(x[0] - exact)

        e1 = final_error(0.1)
        e2 = final_error(0.05)
        assert e2 < e1 / 3.0

    def test_backward_euler_first_order(self):
        sys = QLDAE(np.array([[-1.0]]), np.array([1.0]))
        u = lambda t: np.array([1.0])

        def final_error(dt):
            x = np.zeros(1)
            for k in range(int(round(1.0 / dt))):
                x, _ = implicit_step(
                    sys, x, u(0), u(0), dt, theta=THETA_BACKWARD_EULER
                )
            return abs(x[0] - (1.0 - np.exp(-1.0)))

        e1 = final_error(0.1)
        e2 = final_error(0.05)
        assert e2 < e1  # converges
        assert e2 > e1 / 3.0  # but only first order

    def test_invalid_theta(self):
        sys = QLDAE(np.array([[-1.0]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            implicit_step(sys, np.zeros(1), [0.0], [0.0], 0.1, theta=1.5)


class TestSimulate:
    def test_linear_step_response(self):
        sys = QLDAE(np.array([[-2.0]]), np.array([2.0]))
        res = simulate(sys, step_source(1.0), 5.0, 0.01)
        # steady state 1, time constant 0.5
        assert abs(res.states[-1, 0] - 1.0) < 1e-4
        idx = np.searchsorted(res.times, 0.5)
        assert abs(res.states[idx, 0] - (1 - np.exp(-1))) < 1e-3

    def test_mass_matrix_slows_dynamics(self):
        fast = QLDAE(np.array([[-1.0]]), np.array([1.0]))
        slow = QLDAE(
            np.array([[-1.0]]), np.array([1.0]),
            mass=np.array([[4.0]])
        )
        rf = simulate(fast, step_source(1.0), 2.0, 0.01)
        rs = simulate(slow, step_source(1.0), 2.0, 0.01)
        assert rs.states[-1, 0] < rf.states[-1, 0]

    def test_dense_mass_factored_once_per_run(self, monkeypatch):
        factored = []
        real = integrators._factorize
        monkeypatch.setattr(
            integrators, "_factorize",
            lambda mat: factored.append(mat) or real(mat),
        )
        mass = np.array([[2.0, 0.3], [0.1, 1.5]])
        sys = QLDAE(-np.eye(2), np.ones(2), mass=mass)
        res = simulate(sys, step_source(1.0), 1.0, 0.05)
        assert res.steps == 21
        assert len(factored) == 1 and factored[0] is sys.mass
        # The memoized LU reproduces a fresh dense solve of the mass.
        f = np.array([0.7, -0.2])
        assert np.allclose(sys._mass_lu[1].solve(f), np.linalg.solve(mass, f))

    def test_singular_dense_mass_raises(self):
        sys = QLDAE(-np.eye(2), np.ones(2), mass=np.diag([1.0, 0.0]))
        with pytest.raises(NumericalError):
            implicit_step(sys, np.zeros(2), [1.0], [1.0], 0.1)

    def test_nonlinear_saturation(self, small_qldae):
        res = simulate(small_qldae, step_source(0.2), 10.0, 0.01)
        assert np.isfinite(res.states).all()
        assert res.newton_iterations > 0

    def test_initial_condition(self, small_qldae, rng):
        x0 = 0.1 * rng.standard_normal(5)
        res = simulate(small_qldae, zero_source(), 1.0, 0.01, x0=x0)
        assert np.allclose(res.states[0], x0)

    def test_outputs_shape(self, small_qldae):
        res = simulate(small_qldae, step_source(0.1), 1.0, 0.01)
        assert res.outputs.shape == (res.steps, 1)
        assert res.output(0).shape == (res.steps,)

    def test_wall_time_recorded(self, small_qldae):
        res = simulate(small_qldae, step_source(0.1), 1.0, 0.01)
        assert res.wall_time > 0.0

    def test_input_shape_mismatch(self, miso_qldae):
        with pytest.raises(ValidationError):
            simulate(miso_qldae, step_source(1.0), 1.0, 0.1)

    def test_bad_grid(self, small_qldae):
        with pytest.raises(ValidationError):
            simulate(small_qldae, step_source(1.0), 0.0, 0.1)

    def test_repr(self, small_qldae):
        res = simulate(small_qldae, step_source(0.1), 0.5, 0.1)
        assert "TransientResult" in repr(res)
