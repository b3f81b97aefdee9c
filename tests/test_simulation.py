"""Tests for sources, Newton, integrators and the transient driver."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.simulation.integrators as integrators
import repro.simulation.newton as newton_mod
import repro.simulation.transient as transient_mod
from repro.circuits import quadratic_rc_ladder_netlist
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
from repro.systems import QLDAE, PolynomialODE


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


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_first_residual_refused(self, bad):
        # An infinite first residual used to make the convergence floor
        # infinite too, so x0 came back "converged" after 0 iterations.
        with pytest.raises(ConvergenceError) as info:
            newton_solve(
                lambda x: np.full(2, bad), lambda x: np.eye(2), np.zeros(2)
            )
        assert info.value.iterations == 0

    def test_non_finite_first_residual_leaves_cache_alone(self):
        cache = JacobianCache()
        newton_solve(lambda x: x - 1.0, lambda x: np.eye(2), np.zeros(2),
                     jac_cache=cache)
        lu, count = cache.lu, cache.factorizations
        with pytest.raises(ConvergenceError):
            newton_solve(lambda x: np.full(2, np.inf), lambda x: np.eye(2),
                         np.zeros(2), jac_cache=cache)
        assert cache.lu is lu and cache.factorizations == count


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

    def test_predictor_overflow_raises(self):
        # f(x0) = 1e200 is finite, but at the predictor 1e300 the
        # right-hand side overflows: the step must be refused, not
        # accepted as converged with an infinite residual.
        sys = QLDAE(np.array([[1e200]]), np.array([1.0]))
        with np.errstate(over="ignore"), pytest.raises(
            ConvergenceError
        ) as info:
            simulate(sys, zero_source(), 1e100, 1e100, x0=[1.0])
        assert info.value.iterations == 0


# ---------------------------------------------------------------------------
# the one fixed-step loop against a test-local copy of the per-step loop it
# replaced (f(x_k, u_k) evaluated afresh at every step)
# ---------------------------------------------------------------------------


def _reference_step(system, x_k, u_k, u_k1, dt, theta=0.5, newton_tol=1e-10,
                    max_iterations=25, jac_cache=None):
    n = system.n_states
    mass = system.mass
    sparse_system = getattr(system, "is_sparse", False) or sp.issparse(mass)

    def apply_mass(x):
        return x if mass is None else mass @ x

    f_k = system.rhs(x_k, u_k)
    const = apply_mass(x_k) + dt * (1.0 - theta) * f_k

    def residual(x):
        return apply_mass(x) - dt * theta * system.rhs(x, u_k1) - const

    def jacobian(x):
        jac = system.jacobian(x, u_k1)
        m = mass
        if m is None:
            m = sp.identity(n, format="csr") if sparse_system else np.eye(n)
        if sp.issparse(m) and sp.issparse(jac):
            return sp.csr_matrix(m - dt * theta * jac)
        if sp.issparse(jac):
            jac = jac.toarray()
        m = m.toarray() if sp.issparse(m) else m
        return m - dt * theta * jac

    if mass is None:
        guess = x_k + dt * f_k
    else:
        guess = x_k + dt * integrators._mass_factor(system, mass).solve(f_k)
    return newton_solve(residual, jacobian, guess, tol=newton_tol,
                        max_iterations=max_iterations, jac_cache=jac_cache)


def _reference_simulate(system, u_fn, t_end, dt, x0=None,
                        reuse_jacobian=True, cache_type=JacobianCache):
    steps = int(round(t_end / dt)) + 1
    times = np.arange(steps) * dt
    states = np.zeros((steps, system.n_states))
    if x0 is not None:
        states[0] = x0
    cache = cache_type() if reuse_jacobian else None
    total = 0
    u_prev = np.atleast_1d(np.asarray(u_fn(times[0]), dtype=float))
    for k in range(steps - 1):
        u_next = np.atleast_1d(np.asarray(u_fn(times[k + 1]), dtype=float))
        states[k + 1], iters = _reference_step(
            system, states[k], u_prev, u_next, dt, jac_cache=cache
        )
        total += iters
        u_prev = u_next
    outputs = system.observe(states)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    return (states, outputs, total,
            None if cache is None else cache.factorizations)


def _dense_mass_qldae(rng):
    n = 5
    g1 = -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
    mass = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    return QLDAE(g1, rng.standard_normal(n),
                 g2=0.2 * rng.standard_normal((n, n * n)),
                 d1=0.2 * rng.standard_normal((n, n)), mass=mass,
                 output=np.eye(n)[0])


def _sparse_ladder(rng, with_mass):
    ladder = quadratic_rc_ladder_netlist(n_nodes=30).compile(sparse=True)
    if not with_mass:
        return ladder
    n = ladder.n_states
    return QLDAE(ladder.g1, ladder.b, g2=ladder.g2,
                 mass=sp.diags(1.0 + 0.5 * rng.random(n), format="csr"),
                 output=ladder.output)


def _mixed_mass_qldae(rng):
    """Dense state matrices with a CSR mass: a mixed pair."""
    n = 5
    return QLDAE(-1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n)),
                 rng.standard_normal(n),
                 g2=0.2 * rng.standard_normal((n, n * n)),
                 mass=sp.diags(1.0 + 0.5 * rng.random(n), format="csr"),
                 output=np.eye(n)[0])


def _cubic_quadratic(rng):
    n = 4
    return PolynomialODE(
        -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n)),
        rng.standard_normal(n),
        g2=0.2 * rng.standard_normal((n, n * n)),
        g3=0.1 * rng.standard_normal((n, n**3)),
        output=np.eye(n)[0],
    )


@pytest.fixture(params=["dense-mass", "mass-free-d1", "mass-free",
                        "sparse-mass", "sparse", "mixed-mass", "cubic",
                        "cubic-only"])
def step_system(request, rng, small_qldae, small_qldae_no_d1, small_cubic):
    return {
        "dense-mass": lambda: _dense_mass_qldae(rng),
        "mass-free-d1": lambda: small_qldae,
        "mass-free": lambda: small_qldae_no_d1,
        "sparse-mass": lambda: _sparse_ladder(rng, with_mass=True),
        "sparse": lambda: _sparse_ladder(rng, with_mass=False),
        "mixed-mass": lambda: _mixed_mass_qldae(rng),
        "cubic": lambda: _cubic_quadratic(rng),
        "cubic-only": lambda: small_cubic,
    }[request.param]()


def _assert_same_run(result, reference):
    states, outputs, newton_iterations, factorizations = reference
    assert np.array_equal(result.states, states)
    assert np.array_equal(result.outputs, outputs)
    assert result.newton_iterations == newton_iterations
    assert result.jacobian_factorizations == factorizations


class TestStepLoop:
    SOURCE = staticmethod(sine_source(0.4, frequency=0.3))

    @pytest.mark.parametrize("reuse", [True, False], ids=["chord", "exact"])
    def test_matches_the_per_step_loop(self, step_system, reuse):
        result = simulate(step_system, self.SOURCE, 4.0, 0.05,
                          reuse_jacobian=reuse)
        _assert_same_run(result, _reference_simulate(
            step_system, self.SOURCE, 4.0, 0.05, reuse_jacobian=reuse
        ))

    def test_systems_exercise_their_terms(self, rng):
        assert _dense_mass_qldae(rng).d1 is not None
        sparse = _sparse_ladder(rng, with_mass=True)
        assert sparse.is_sparse and sp.issparse(sparse.mass)
        assert _sparse_ladder(rng, with_mass=False).mass is None
        mixed = _mixed_mass_qldae(rng)
        assert not mixed.is_sparse and sp.issparse(mixed.mass)
        assert _cubic_quadratic(rng).g3 is not None

    def test_one_rhs_evaluation_per_newton_iterate(self, small_qldae,
                                                    monkeypatch):
        calls = []
        real = type(small_qldae).rhs

        def counting(self, x, u):
            calls.append(None)
            return real(self, x, u)

        monkeypatch.setattr(type(small_qldae), "rhs", counting)
        residuals = []
        real_solve = newton_mod.newton_solve

        def counting_solve(residual, *args, **kwargs):
            def counted(x):
                residuals.append(None)
                return residual(x)
            return real_solve(counted, *args, **kwargs)

        monkeypatch.setattr(integrators, "newton_solve", counting_solve)
        result = simulate(small_qldae, self.SOURCE, 2.0, 0.05)
        # f(x_0, u_0) once, then exactly one f per residual evaluation:
        # no step re-evaluates f at the state it starts from.
        assert len(calls) == 1 + len(residuals)
        assert len(residuals) > result.newton_iterations

    def test_stale_jacobian_retry_path(self, small_qldae, monkeypatch):
        # A cache seeded with a wrong-sign iteration matrix sends the first
        # chord step uphill: backtracking fails, and Newton refreshes the
        # Jacobian and retries the same iterate.
        n = small_qldae.n_states

        class SeededCache(JacobianCache):
            def __init__(self):
                super().__init__()
                self.factor(-np.eye(n))

        failures = []
        real_backtrack = newton_mod._backtrack

        def watching(*args):
            accepted = real_backtrack(*args)
            if accepted is None:
                failures.append(None)
            return accepted

        monkeypatch.setattr(newton_mod, "_backtrack", watching)
        monkeypatch.setattr(transient_mod, "JacobianCache", SeededCache)
        result = simulate(small_qldae, self.SOURCE, 1.0, 0.05)
        assert failures  # the retry path ran
        seen = len(failures)
        _assert_same_run(result, _reference_simulate(
            small_qldae, self.SOURCE, 1.0, 0.05, cache_type=SeededCache
        ))
        assert len(failures) == 2 * seen

    @pytest.mark.parametrize("cached", [False, True])
    def test_implicit_step_alone(self, step_system, cached):
        n = step_system.n_states
        x_k = 0.05 * np.arange(1, n + 1) / n
        caches = [JacobianCache() if cached else None for _ in range(2)]
        for _ in range(3):
            x_new, it_new = implicit_step(
                step_system, x_k, [0.2], [0.3], 0.1, jac_cache=caches[0]
            )
            x_ref, it_ref = _reference_step(
                step_system, x_k, [0.2], [0.3], 0.1, jac_cache=caches[1]
            )
            assert np.array_equal(x_new, x_ref) and it_new == it_ref
            x_k = x_new
        if cached:
            assert caches[0].factorizations == caches[1].factorizations
