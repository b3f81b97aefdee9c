"""Variational (Volterra-series) time-domain responses.

Integrating the variational systems gives the order-by-order responses

    x1' = G1 x1 + B u
    x2' = G1 x2 + G2 (x1 ⊗ x1) + Σᵢ D1ᵢ x1 uᵢ
    x3' = G1 x3 + G2 (x1 ⊗ x2 + x2 ⊗ x1) + G3 (x1 ⊗ x1 ⊗ x1)
                 + Σᵢ D1ᵢ x2 uᵢ

so that ``x ≈ x1 + x2 + x3`` for small inputs, with ``xk`` scaling as the
k-th power of the input amplitude.  These trajectories are the
time-domain ground truth for the Volterra kernels: the response of the
associated realizations must agree with them (the test suite and the
examples rely on this).

Each variational stage is *linear* in its own state, so a fixed-step
trapezoidal scheme with one LU factorization integrates all orders
robustly (A-stable; no Newton needed).
"""

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int
from ..errors import SystemStructureError, ValidationError
from ..linalg.lu import factorized_solver
from ..linalg.resolvent import ResolventFactory

__all__ = ["VolterraResponse", "volterra_series_response", "frequency_sweep"]


class VolterraResponse:
    """Order-separated responses returned by
    :func:`volterra_series_response`.

    Attributes
    ----------
    times : (steps,) ndarray
    orders : dict mapping order k -> (steps, n) state trajectories
    """

    def __init__(self, times, orders, system):
        self.times = times
        self.orders = orders
        self._system = system

    def state(self, order=None):
        """Total state (sum over orders) or a single order's trajectory."""
        if order is not None:
            return self.orders[order]
        total = np.zeros_like(next(iter(self.orders.values())))
        for traj in self.orders.values():
            total = total + traj
        return total

    def output(self, order=None):
        """Observed output ``y = C x`` of the summed (or single-order)
        response."""
        return self._system.observe(self.state(order))


def _input_samples(u_fn, times, m):
    samples = np.empty((times.size, m))
    for idx, t in enumerate(times):
        u = np.atleast_1d(np.asarray(u_fn(t), dtype=float))
        if u.shape != (m,):
            raise ValidationError(
                f"input function returned shape {u.shape}, expected ({m},)"
            )
        samples[idx] = u
    return samples


def frequency_sweep(system, omegas, output=True):
    """Batched linear frequency response ``H1(jω)`` over a whole ω-grid.

    Evaluates the first-order transfer function at every point of
    *omegas* through one shared factorization of ``G1``
    (:meth:`ResolventFactory.solve_many` hoists the basis rotations out
    of the grid loop), instead of one fresh ``O(n³)`` solve per point.

    Parameters
    ----------
    system : PolynomialODE (explicit)
    omegas : array_like of float
        Angular frequencies.
    output : bool
        When True (default) the system's output map is applied and the
        result has shape ``(len(omegas), p, m)``; otherwise the raw
        state-space kernels ``(len(omegas), n, m)`` are returned.

    Returns
    -------
    complex ndarray.
    """
    if system.mass is not None:
        raise SystemStructureError(
            "frequency_sweep requires an explicit system; call "
            "to_explicit() first"
        )
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    factory = ResolventFactory.for_system(system)
    kernels = factory.solve_many(1j * omegas, system.b)
    if not output:
        return kernels
    return np.einsum("pn,knm->kpm", system.output.astype(complex), kernels)


def volterra_series_response(system, u_fn, t_end, dt, order=3):
    """Integrate the variational systems up to *order* (1, 2 or 3).

    Parameters
    ----------
    system : PolynomialODE
        Must be explicit (``mass is None``).
    u_fn : callable
        ``u_fn(t) -> scalar or (m,)`` input signal.
    t_end, dt : float
        Time horizon and fixed step of the trapezoidal scheme.
    order : int
        Highest Volterra order to integrate.

    Returns
    -------
    VolterraResponse
    """
    if system.mass is not None:
        raise SystemStructureError(
            "variational integration requires an explicit system"
        )
    order = check_positive_int(order, "order")
    if order > 3:
        raise ValidationError("orders above 3 are not implemented")
    if dt <= 0 or t_end <= 0:
        raise ValidationError("t_end and dt must be positive")
    n = system.n_states
    m = system.n_inputs
    steps = int(round(t_end / dt)) + 1
    times = np.arange(steps) * dt
    u = _input_samples(u_fn, times, m)

    g1 = system.g1
    if sp.issparse(g1):
        # Sparse fast path: one sparse LU of the trapezoidal operator,
        # CSR matvecs for the explicit half-step.
        eye = sp.identity(n, format="csr")
        solve = factorized_solver(eye - 0.5 * dt * g1)
        rhs_mat = sp.csr_matrix(eye + 0.5 * dt * g1)
    else:
        eye = np.eye(n)
        solve = factorized_solver(eye - 0.5 * dt * g1)
        rhs_mat = eye + 0.5 * dt * g1

    def integrate(forcing):
        """Trapezoidal solve of x' = G1 x + forcing(t) over the grid."""
        traj = np.zeros((steps, n))
        for k in range(steps - 1):
            rhs = rhs_mat @ traj[k] + 0.5 * dt * (forcing[k] + forcing[k + 1])
            traj[k + 1] = solve(rhs)
        return traj

    orders = {}

    forcing1 = u @ system.b.T
    orders[1] = integrate(forcing1)

    if order >= 2:
        x1 = orders[1]
        forcing2 = np.zeros((steps, n))
        if system._quad is not None:
            for k in range(steps):
                forcing2[k] += system._quad.eval(x1[k])
        if system.d1 is not None:
            for i, d1_i in enumerate(system.d1):
                forcing2 += (x1 @ d1_i.T) * u[:, i : i + 1]
        orders[2] = integrate(forcing2)

    if order >= 3:
        x1 = orders[1]
        x2 = orders[2]
        forcing3 = np.zeros((steps, n))
        if system._quad is not None:
            for k in range(steps):
                forcing3[k] += system._quad.eval_bilinear(x1[k], x2[k])
                forcing3[k] += system._quad.eval_bilinear(x2[k], x1[k])
        if system._cubic is not None:
            for k in range(steps):
                forcing3[k] += system._cubic.eval(x1[k])
        if system.d1 is not None:
            for i, d1_i in enumerate(system.d1):
                forcing3 += (x2 @ d1_i.T) * u[:, i : i + 1]
        orders[3] = integrate(forcing3)

    return VolterraResponse(times, orders, system)
