"""Implicit one-step integrators for polynomial (D)AE systems.

Both schemes solve, per step, the nonlinear equation

    M (x_{k+1} − x_k) = dt [ θ f(x_{k+1}, u_{k+1}) + (1−θ) f(x_k, u_k) ]

with ``θ = 1`` (backward Euler, L-stable, first order) or ``θ = ½``
(trapezoidal, A-stable, second order — the default for the paper-style
transient plots).  ``M`` is the mass matrix; it is never inverted, so
mildly stiff RC/RLC systems integrate cleanly.  Without one, ``M`` is
the identity and is applied as such — ``M x`` is ``x`` itself, and an
identity matrix is only built when a Newton refresh assembles
``I − dt·θ·J``.  The predictor's one solve with a given ``M`` goes
through an LU factored once per system (:func:`_mass_factor`), not once
per step.

One stepper (:class:`_ThetaStepper`) is the fixed-step loop of
:func:`~repro.simulation.transient.simulate` and, one step at a time,
:func:`implicit_step`.  It settles the per-run work once (the θ and dt
checks, ``dt·θ``, the mass handling) and evaluates f once per Newton
iterate: the f Newton computed at the iterate it accepts is
``f(x_{k+1}, u_{k+1})``, which the next step starts from instead of
evaluating it again.  A step whose first residual (at the predictor) is
not finite raises :class:`~repro.errors.ConvergenceError`
(:func:`~repro.simulation.newton.newton_solve` refuses it), so an
overflowing right-hand side never passes for a converged step.

Sparse systems (CSR ``g1``/``mass``, e.g. circuit-stamped MNA models)
stay sparse through the whole step: the iteration matrix ``M − dt·θ·J``
is assembled in CSR, and the Newton layer factors it with a sparse LU.
A mixed sparse/dense pair falls back to the dense iteration matrix (the
dense factor dominates the cost anyway).
"""

import numpy as np
import scipy.sparse as sp

from ..errors import ValidationError
from .newton import _factorize, newton_solve

__all__ = ["implicit_step", "THETA_BACKWARD_EULER", "THETA_TRAPEZOIDAL"]

THETA_BACKWARD_EULER = 1.0
THETA_TRAPEZOIDAL = 0.5


class _ThetaStepper:
    """The fixed-step θ-scheme loop's state for one run.

    Everything fixed for the run is settled once, here: the θ and dt
    checks, ``dt·θ`` and ``dt·(1−θ)``, the mass term of the iteration
    matrix and the predictor's mass LU.  :meth:`step` then solves one
    step by Newton, evaluating f once per Newton iterate: its residual
    keeps the f it computed, and since Newton's last residual evaluation
    is always at the iterate it accepts, that f is ``f(x_{k+1},
    u_{k+1})`` — exactly the ``f(x_k, u_k)`` the next step starts from.
    """

    def __init__(self, system, dt, theta, newton_tol, max_iterations,
                 jac_cache):
        if not 0.0 < theta <= 1.0:
            raise ValidationError(f"theta must be in (0, 1], got {theta}")
        if dt <= 0.0:
            raise ValidationError("dt must be positive")
        self.system = system
        self.dt = dt
        self.dt_theta = dt * theta
        self.dt_explicit = dt * (1.0 - theta)
        self.newton_tol = newton_tol
        self.max_iterations = max_iterations
        self.jac_cache = jac_cache
        self.mass = mass = system.mass
        self._sparse = getattr(system, "is_sparse", False) or sp.issparse(
            mass
        )
        self._mass_lu = None if mass is None else _mass_factor(system, mass)
        # The M of the iteration matrix M − dt·θ·J, built at the first
        # Jacobian refresh (an identity when the system has no mass),
        # and its dense copy for mixed sparse/dense pairs.
        self._jac_mass = None
        self._jac_mass_dense = None
        self._u = None  # the step's end-point input u_{k+1}
        self._const = None  # M x_k + dt·(1−θ)·f(x_k, u_k)
        self._f = self._f_at = None  # last f evaluated, and where

    def _residual(self, x):
        f = self.system.rhs(x, self._u)
        self._f, self._f_at = f, x
        mass_x = x if self.mass is None else self.mass @ x
        return mass_x - self.dt_theta * f - self._const

    def _jacobian(self, x):
        jac = self.system.jacobian(x, self._u)
        m = self._jac_mass
        if m is None:
            m = self.mass
            if m is None:
                n = self.system.n_states
                m = sp.identity(n, format="csr") if self._sparse else np.eye(n)
            self._jac_mass = m
        if sp.issparse(m) and sp.issparse(jac):
            return sp.csr_matrix(m - self.dt_theta * jac)
        if sp.issparse(jac):
            jac = jac.toarray()
        if self._jac_mass_dense is None:
            self._jac_mass_dense = m.toarray() if sp.issparse(m) else m
        return self._jac_mass_dense - self.dt_theta * jac

    def step(self, x_k, f_k, u_k1):
        """Advance from ``x_k`` (where ``f_k = f(x_k, u_k)``) to the step's
        end point under input *u_k1*; returns ``(x_{k+1}, f(x_{k+1},
        u_{k+1}), newton_iterations)``."""
        self._u = u_k1
        mass_x = x_k if self.mass is None else self.mass @ x_k
        self._const = mass_x + self.dt_explicit * f_k
        # Predictor: explicit-Euler-ish guess keeps Newton counts low.
        if self._mass_lu is None:
            guess = x_k + self.dt * f_k
        else:
            guess = x_k + self.dt * self._mass_lu.solve(f_k)
        x, iterations = newton_solve(
            self._residual,
            self._jacobian,
            guess,
            tol=self.newton_tol,
            max_iterations=self.max_iterations,
            jac_cache=self.jac_cache,
        )
        f = self._f if self._f_at is x else self.system.rhs(x, u_k1)
        return x, f, iterations


def implicit_step(
    system,
    x_k,
    u_k,
    u_k1,
    dt,
    theta=THETA_TRAPEZOIDAL,
    newton_tol=1e-10,
    max_iterations=25,
    jac_cache=None,
):
    """Advance one implicit θ-step; returns ``(x_{k+1}, newton_iters)``.

    One step of the stepper :func:`~repro.simulation.transient.simulate`
    runs.  Called on its own it evaluates ``f(x_k, u_k)`` itself, which
    ``simulate`` carries over from the previous step.

    Parameters
    ----------
    system : PolynomialODE
        May carry a (non-singular) mass matrix.
    x_k : (n,) current state
    u_k, u_k1 : (m,) inputs at both endpoints
    dt : float step size
    theta : float in (0, 1]
    jac_cache : JacobianCache, optional
        Chord-Newton state shared across steps: the LU of the iteration
        matrix ``M − dt·θ·J`` from previous steps is reused until
        convergence degrades.  Only valid while ``dt`` and ``theta`` stay
        fixed between calls (the fixed-step driver guarantees this).
    """
    stepper = _ThetaStepper(
        system, dt, theta, newton_tol, max_iterations, jac_cache
    )
    x, _, iterations = stepper.step(x_k, system.rhs(x_k, u_k), u_k1)
    return x, iterations


def _mass_factor(system, mass):
    """LU of *mass*, memoized on the system (its ``_mass_lu`` slot).

    :func:`~repro.simulation.transient.simulate` then pays one
    factorization per run, not one per step.  Sparse masses get an
    unguarded sparse LU, dense ones LAPACK ``getrf``: a nearly singular
    mass still yields a usable (if poor) predictor, and an exactly
    singular one raises :class:`~repro.errors.NumericalError` on both
    branches.
    """
    cached = getattr(system, "_mass_lu", None)
    if cached is None or cached[0] is not mass:
        cached = (mass, _factorize(mass))
        try:
            system._mass_lu = cached
        except AttributeError:
            pass
    return cached[1]
