"""Transient simulation driver — the paper's "ODE solve" workload.

Fixed-step implicit integration of a polynomial system (full model or
ROM) under a time-dependent input; reports wall time and Newton
statistics so Table 1's runtime comparison can be regenerated.

The loop evaluates the right-hand side once per Newton iterate: the
f(x, u) Newton computed at each accepted state is carried into the next
step (the integrators' stepper), and the input is validated once per
time point.  A step whose first residual is not finite (a right-hand
side overflowing at the predictor) raises
:class:`~repro.errors.ConvergenceError` instead of being accepted.
"""

import time

import numpy as np

from ..errors import ValidationError
from .integrators import THETA_TRAPEZOIDAL, _ThetaStepper
from .newton import JacobianCache

__all__ = ["TransientResult", "simulate"]


class TransientResult:
    """Trajectory container returned by :func:`simulate`.

    Attributes
    ----------
    times : (steps,) ndarray
    states : (steps, n) ndarray
    outputs : (steps, p) ndarray
    wall_time : float
        Seconds spent inside the integration loop.
    newton_iterations : int
        Total Newton iterations across all steps.
    jacobian_factorizations : int or None
        LU factorizations of the Newton iteration matrix (chord-Newton
        runs only; ``None`` when the exact-Newton path was used).
    """

    def __init__(
        self,
        times,
        states,
        outputs,
        wall_time,
        newton_iterations,
        jacobian_factorizations=None,
    ):
        self.times = times
        self.states = states
        self.outputs = outputs
        self.wall_time = wall_time
        self.newton_iterations = newton_iterations
        self.jacobian_factorizations = jacobian_factorizations

    @property
    def steps(self):
        return self.times.size

    def output(self, index=0):
        """One output channel as a 1-D trace."""
        return self.outputs[:, index]

    def __repr__(self):
        return (
            f"TransientResult(steps={self.steps}, "
            f"wall_time={self.wall_time:.3f}s, "
            f"newton_iterations={self.newton_iterations})"
        )


def simulate(
    system,
    u_fn,
    t_end,
    dt,
    x0=None,
    theta=THETA_TRAPEZOIDAL,
    newton_tol=1e-10,
    max_newton=25,
    reuse_jacobian=True,
):
    """Integrate *system* from 0 to *t_end* with fixed step *dt*.

    Parameters
    ----------
    system : PolynomialODE (or anything with rhs/jacobian/mass/observe)
    u_fn : callable ``t -> scalar or (m,)``
    t_end, dt : float
    x0 : (n,) initial state (defaults to zero — the circuits' shifted
        operating point)
    theta : float
        Implicit scheme parameter (0.5 = trapezoidal, 1.0 = BE).
    reuse_jacobian : bool
        When True (default) a chord-Newton :class:`JacobianCache` is
        carried across all timesteps, so the LU of the iteration matrix
        is refactorized only when convergence degrades instead of at
        every Newton iteration.  The convergence tolerance is unchanged;
        set False to force the classic exact-Newton path.

    Sparse systems (CSR ``g1``/``mass``, e.g. circuit-scale MNA models)
    integrate without any densification: the iteration matrix stays CSR
    and is factored with a sparse LU, and a sparse mass matrix is
    factored once for the per-step predictor.

    Returns
    -------
    TransientResult
    """
    if t_end <= 0 or dt <= 0:
        raise ValidationError("t_end and dt must be positive")
    n = system.n_states
    m = system.n_inputs
    steps = int(round(t_end / dt)) + 1
    times = np.arange(steps) * dt
    states = np.zeros((steps, n))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(n)
        states[0] = x0

    def u_at(t):
        val = np.atleast_1d(np.asarray(u_fn(t), dtype=float))
        if val.shape != (m,):
            raise ValidationError(
                f"input returned shape {val.shape}, expected ({m},)"
            )
        return val

    total_newton = 0
    jac_cache = JacobianCache() if reuse_jacobian else None
    start = time.perf_counter()
    stepper = _ThetaStepper(
        system, dt, theta, newton_tol, max_newton, jac_cache
    )
    f_k = system.rhs(states[0], u_at(times[0]))
    for k in range(steps - 1):
        states[k + 1], f_k, iters = stepper.step(
            states[k], f_k, u_at(times[k + 1])
        )
        total_newton += iters
    wall = time.perf_counter() - start
    outputs = system.observe(states)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    return TransientResult(
        times,
        states,
        outputs,
        wall,
        total_newton,
        jacobian_factorizations=(
            jac_cache.factorizations if jac_cache is not None else None
        ),
    )
