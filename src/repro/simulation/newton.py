"""Damped Newton solver with optional chord-mode Jacobian reuse.

The transient driver calls Newton once per timestep; exact Newton
re-assembles and re-factorizes the iteration matrix at *every iteration
of every step*, which dominates the paper's Table-1 runtime.  Chord
(modified) Newton instead keeps one LU factorization alive — in a
:class:`JacobianCache` owned by the caller, so it persists *across
timesteps* — and only refreshes it when convergence degrades.  The
convergence test is unchanged (it is on the residual, not the step), so
chord iterates land inside the same tolerance ball as exact Newton.

Sparse fast path: a scipy-sparse iteration matrix (what sparse systems'
``jacobian`` produces through :func:`~repro.simulation.integrators.
implicit_step`) is detected here and factored **once** with
:func:`~repro.linalg.lu.sparse_lu` — LAPACK's band LU when its pattern
is banded, SuperLU otherwise — and never densified, so a circuit-sized
chord-Newton transient costs ``O(nnz)`` per factorization instead of
``O(n³)``.  Dense matrices are factored with LAPACK ``getrf`` and solved
with ``getrs``, called directly: the same calls ``scipy.linalg.lu_factor``
and ``lu_solve`` make, so results are bit-identical, minus the per-call
finiteness scan of every right-hand side — a non-finite residual gives a
non-finite step instead, which ends in :class:`ConvergenceError` just the
same.  An exactly zero pivot raises :class:`NumericalError` on both
branches (the sparse LU raises on its own).

A non-finite first residual is refused with :class:`ConvergenceError`
(``iterations=0``) before any factorization: an infinite one would make
the convergence floor, which scales with it, infinite too.  Each call
evaluates the residual once per iterate and last at the iterate it
returns, which lets the transient stepper carry ``f(x_{k+1}, u_{k+1})``
into the next step instead of evaluating f there again.
"""

import threading

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ..errors import ConvergenceError, NumericalError
from ..linalg.lu import sparse_lu

__all__ = ["newton_solve", "JacobianCache"]

#: A reused-Jacobian iteration must shrink the residual by at least this
#: factor per step; anything slower triggers a refactorization.
_CHORD_REFRESH_RATIO = 0.5


class _DenseFactorization:
    """LAPACK LU of a dense matrix (``getrf`` / ``getrs`` called directly).

    The factor keeps ``lu_factor``'s finiteness check of the matrix; an
    exactly zero pivot raises :class:`NumericalError` rather than
    leaving ``getrs`` to divide by it.
    """

    is_sparse = False

    def __init__(self, mat):
        mat = np.asarray_chkfinite(mat)
        getrf, self._getrs = sla.get_lapack_funcs(("getrf", "getrs"), (mat,))
        self._lu, self._piv, info = getrf(mat)
        if info > 0:
            raise NumericalError(
                f"matrix is exactly singular (pivot {info - 1} is zero)"
            )
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrf")

    def solve(self, rhs):
        x, info = self._getrs(self._lu, self._piv, rhs)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x


class _SparseFactorization:
    """Sparse LU (band or SuperLU) of a sparse iteration matrix.

    Unguarded (``guard=False``): near-singular iteration matrices are
    recovered by Newton's backtracking/refresh machinery, matching the
    dense LAPACK path's behavior.
    """

    is_sparse = True

    def __init__(self, jac):
        self._lu = sparse_lu(jac, guard=False)

    def solve(self, rhs):
        return self._lu.solve(rhs)


def _factorize(mat):
    """Factor a square matrix, sparse-aware; returns a solver with a
    ``solve(rhs)`` method and an ``is_sparse`` flag."""
    if sp.issparse(mat):
        return _SparseFactorization(mat)
    return _DenseFactorization(mat)


#: Exceptions the factorization/backsolve layer can raise on a singular
#: or non-finite iteration matrix (the dense factor NumericalError or
#: ValueError, the shared sparse_lu helper NumericalError, SuperLU's
#: backsolve RuntimeError).
_FACTOR_ERRORS = (ValueError, RuntimeError, NumericalError)


class JacobianCache:
    """Persistent LU of the Newton iteration matrix (chord Newton).

    Hand one instance to consecutive :func:`newton_solve` calls (the
    transient driver keeps one per :func:`~repro.simulation.transient.
    simulate` run) and the factorization from the previous timestep seeds
    the next one.  The cache refreshes itself whenever

    * the residual contraction per iteration is worse than
      ``refresh_ratio``,
    * backtracking had to damp the step, or
    * the cached factorization turns out singular/non-finite.

    Sparse iteration matrices are factored with the sparse LU and reused
    identically; :attr:`lu` then holds the sparse factorization object.

    Attributes
    ----------
    factorizations : int
        LU factorizations performed (the expensive operation saved).
    reuses : int
        Newton iterations served from a previously computed LU.
    """

    def __init__(self, refresh_ratio=_CHORD_REFRESH_RATIO):
        self.refresh_ratio = float(refresh_ratio)
        self.lu = None
        self.factorizations = 0
        self.reuses = 0
        # A cache shared across concurrently integrated trajectories
        # must not interleave a factor with another thread's invalidate
        # and count updates.
        self._lock = threading.Lock()

    def invalidate(self):
        """Drop the cached factorization (forces a refresh next use)."""
        with self._lock:
            self.lu = None

    def factor(self, jac):
        """Factor *jac* and make it the cached iteration matrix."""
        lu = _factorize(jac)
        with self._lock:
            self.lu = lu
            self.factorizations += 1
        return lu

    def note_reuse(self):
        """Count one Newton iteration served from the cached LU."""
        with self._lock:
            self.reuses += 1


def _backtrack(residual, x, step, norm, damping_steps):
    """Damped line search; returns (trial, res, norm, scale) or None."""
    scale = 1.0
    for _ in range(damping_steps + 1):
        trial = x - scale * step
        trial_res = residual(trial)
        trial_norm = np.abs(trial_res).max()
        if trial_norm < norm or not np.isfinite(norm):
            return trial, trial_res, trial_norm, scale
        scale *= 0.5
    return None


def newton_solve(
    residual,
    jacobian,
    x0,
    tol=1e-10,
    max_iterations=25,
    damping_steps=4,
    jac_cache=None,
):
    """Solve ``residual(x) = 0`` by (chord-)Newton with backtracking.

    Parameters
    ----------
    residual : callable ``x -> (n,)``
    jacobian : callable ``x -> (n, n)``
        May return either a dense ndarray or a scipy sparse matrix; the
        latter is factored with a sparse LU (never densified).
    x0 : (n,) initial guess
    tol : float
        Convergence threshold on ``‖residual‖_∞`` relative to the scale
        of the first residual (plus an absolute floor).
    max_iterations : int
    damping_steps : int
        Number of step-halving attempts per iteration when the full step
        does not decrease the residual norm.
    jac_cache : JacobianCache, optional
        When given, runs chord Newton: the cached LU is reused across
        iterations *and across calls*, refreshed on slow convergence.
        When omitted the classic exact-Newton path (one factorization
        per iteration) runs unchanged.

    Returns
    -------
    (x, iterations)

    The last ``residual`` call is always at the returned ``x`` (the
    starting guess, or the iterate the final line search accepted), so
    a caller's residual can keep what it computed there — the transient
    stepper carries its ``f(x, u)`` into the next step this way.

    Raises
    ------
    ConvergenceError
        When the first residual is not finite (``iterations=0``), or
        when the iteration stalls or exceeds *max_iterations*.
    """
    x = np.array(x0, dtype=float)
    res = residual(x)
    norm = np.abs(res).max()
    if not np.isfinite(norm):
        # An infinite first residual would make the convergence floor
        # itself infinite and pass x0 off as converged.
        raise ConvergenceError(
            "Newton's first residual is not finite",
            iterations=0,
            residual=float(norm),
        )
    floor = tol * max(norm, 1.0) + 1e-14
    if norm <= floor:
        return x, 0
    for iteration in range(1, max_iterations + 1):
        # Snapshot the cached LU exactly once per iteration: with a
        # cache shared across threads, re-reading jac_cache.lu after
        # another thread's invalidate() would hand a None to factor().
        cached_lu = jac_cache.lu if jac_cache is not None else None
        fresh = jac_cache is None or cached_lu is None
        # Evaluate the Jacobian outside the try: errors raised by the
        # user callable must propagate untouched, not be misreported as
        # a singular iteration matrix.
        jac = jacobian(x) if fresh else None
        try:
            if jac_cache is None:
                lu = _factorize(jac)
            elif cached_lu is None:
                lu = jac_cache.factor(jac)
            else:
                lu = cached_lu
                jac_cache.note_reuse()
            step = lu.solve(res)
        except _FACTOR_ERRORS as exc:
            raise ConvergenceError(
                f"Newton Jacobian is singular at iteration {iteration}",
                iterations=iteration,
                residual=float(norm),
            ) from exc
        if not np.isfinite(step).all():
            if not fresh:
                # A stale factorization can go bad (near-singular pivot
                # growth); retry once with a fresh Jacobian before
                # declaring failure.
                jac_cache.invalidate()
                continue
            raise ConvergenceError(
                f"Newton step is non-finite at iteration {iteration}",
                iterations=iteration,
                residual=float(norm),
            )
        accepted = _backtrack(residual, x, step, norm, damping_steps)
        if accepted is None:
            if not fresh:
                # Backtracking failure with a reused Jacobian is a
                # staleness symptom, not divergence: refresh and retry
                # the same iterate.
                jac_cache.invalidate()
                fresh = True
                jac = jacobian(x)
                try:
                    retry = jac_cache.factor(jac).solve(res)
                except _FACTOR_ERRORS as exc:
                    raise ConvergenceError(
                        "Newton Jacobian is singular at iteration "
                        f"{iteration}",
                        iterations=iteration,
                        residual=float(norm),
                    ) from exc
                if np.isfinite(retry).all():
                    accepted = _backtrack(
                        residual, x, retry, norm, damping_steps
                    )
            if accepted is None:
                raise ConvergenceError(
                    "Newton backtracking failed to reduce the residual",
                    iterations=iteration,
                    residual=float(norm),
                )
        x, res, trial_norm, scale = accepted
        if jac_cache is not None and not fresh:
            # Chord-mode health check: slow contraction or a damped step
            # means the frozen Jacobian has drifted too far.
            if scale < 1.0 or trial_norm > jac_cache.refresh_ratio * norm:
                jac_cache.invalidate()
        norm = trial_norm
        if norm <= floor:
            return x, iteration
    raise ConvergenceError(
        f"Newton did not converge in {max_iterations} iterations "
        f"(residual {norm:.3e})",
        iterations=max_iterations,
        residual=float(norm),
    )
