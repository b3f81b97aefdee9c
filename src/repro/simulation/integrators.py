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
    if not 0.0 < theta <= 1.0:
        raise ValidationError(f"theta must be in (0, 1], got {theta}")
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    n = system.n_states
    mass = system.mass
    sparse_system = getattr(system, "is_sparse", False) or sp.issparse(mass)
    f_k = system.rhs(x_k, u_k)
    const = _apply_mass(mass, x_k) + dt * (1.0 - theta) * f_k

    def residual(x):
        return _apply_mass(mass, x) - dt * theta * system.rhs(x, u_k1) - const

    mass_dense = None  # lazy one-time densification for mixed pairs only

    def jacobian(x):
        nonlocal mass_dense
        jac = system.jacobian(x, u_k1)
        m = mass
        if m is None:
            m = sp.identity(n, format="csr") if sparse_system else np.eye(n)
        if sp.issparse(m) and sp.issparse(jac):
            return sp.csr_matrix(m - dt * theta * jac)
        if sp.issparse(jac):
            jac = jac.toarray()
        if mass_dense is None:
            mass_dense = m.toarray() if sp.issparse(m) else m
        return mass_dense - dt * theta * jac

    # Predictor: explicit-Euler-ish guess keeps Newton counts low.
    if mass is None:
        guess = x_k + dt * f_k
    else:
        guess = x_k + dt * _mass_factor(system, mass).solve(f_k)
    return newton_solve(
        residual,
        jacobian,
        guess,
        tol=newton_tol,
        max_iterations=max_iterations,
        jac_cache=jac_cache,
    )


def _apply_mass(mass, x):
    """``M x``, with an absent mass matrix standing for the identity."""
    return x if mass is None else mass @ x


def _mass_factor(system, mass):
    """LU of *mass*, memoized on the system (its ``_mass_lu`` slot).

    :func:`~repro.simulation.transient.simulate` then pays one
    factorization per run, not one per step.  Sparse masses get an
    unguarded SuperLU, dense ones LAPACK ``getrf``: a nearly singular
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
