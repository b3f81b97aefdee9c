"""Schur-form utilities for fast shifted solves.

The paper's §2.3 accelerates every solve with ``(k© G1 − s I)`` by
factoring ``G1`` once: with the Schur form ``G1 = Q R Qᵀ`` the repeated
Kronecker sum inherits the factorization
``k© G1 = (Q k©)(k© R)(Q k©)ᵀ`` and each solve reduces to a
(quasi-)triangular backward substitution.

We implement the same idea with the **complex** Schur form, whose ``T``
factor is strictly upper triangular.  That removes the 2×2-block case of
the real quasi-triangular form at the cost of complex arithmetic; for real
inputs all results are real up to rounding (asserted in the test suite).

Every dense Schur-basis substitution in the library — the shifted
solves here, the column sweeps of :mod:`repro.linalg.sylvester` and the
resolvent factory's dense branch — goes through :func:`_solve_upper`,
one direct LAPACK ``ztrtrs`` call.  The sweeps make one such call per
column (``n²`` of them for the dense Π), where
:func:`scipy.linalg.solve_triangular`'s finiteness scans and dispatch
cost several times the ``O(n²)`` substitution itself.
"""

import threading

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrtrs

from .._validation import as_square_matrix
from ..errors import NumericalError

__all__ = ["SchurForm"]

#: Relative threshold below which a shifted triangular diagonal is
#: considered singular.
_SINGULAR_RTOL = 1e-13


def _solve_upper(t, b, trans=0):
    """Solve ``T y = b`` (``trans=0``) or ``Tᵀ y = b`` (``trans=1``).

    *t* is an upper-triangular complex matrix, *b* a vector or a matrix
    of stacked right-hand sides.  LAPACK ``ztrtrs`` is called exactly as
    :func:`scipy.linalg.solve_triangular` calls it — an F-ordered *t*
    as is, a C-ordered one as the lower-triangular ``t.T`` with *trans*
    flipped — so results are bit-identical, minus its per-call
    validation.  Callers refuse near-singular shifts beforehand; an
    exactly zero diagonal entry still raises
    :class:`~repro.errors.NumericalError`.
    """
    if t.flags.f_contiguous:
        y, info = ztrtrs(t, b, lower=0, trans=trans)
    else:
        y, info = ztrtrs(t.T, b, lower=1, trans=1 - trans)
    if info > 0:
        raise NumericalError(
            "triangular solve is singular "
            f"(diagonal entry {info - 1} is exactly zero)"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of ztrtrs")
    return y


def _diagonal(mat):
    """Writable strided view of the diagonal of a square matrix.

    Its one stride is the sum of the matrix's strides, so writes land on
    the diagonal whatever the memory order (C, F or neither).  The
    shifted sweeps rewrite a work matrix's diagonal once per column or
    shift through such a view, one slice assignment, instead of
    :func:`numpy.fill_diagonal`'s flat-iterator write.
    """
    return np.lib.stride_tricks.as_strided(
        mat, shape=(min(mat.shape),), strides=(sum(mat.strides),)
    )


class SchurForm:
    """Complex Schur decomposition ``A = Q T Qᴴ`` with shifted solves.

    Precomputes the factorization once so that solves with ``A + αI`` and
    ``Aᵀ + αI`` (for arbitrary, possibly complex, shifts ``α``) cost one
    triangular substitution each.

    Parameters
    ----------
    a : (n, n) array_like
        Square matrix to factor (dense; sparse inputs are densified).

    Attributes
    ----------
    t : (n, n) complex ndarray
        Upper-triangular Schur factor.
    q : (n, n) complex ndarray
        Unitary factor.
    eigenvalues : (n,) complex ndarray
        ``diag(T)`` — the eigenvalues of ``A``.
    """

    def __init__(self, a):
        a = as_square_matrix(a, "a")
        self.n = a.shape[0]
        t, q = sla.schur(a.astype(complex), output="complex")
        self.t = t
        self.q = q
        self.eigenvalues = np.diag(t).copy()
        self._scale = max(np.abs(self.eigenvalues).max(), 1.0)
        # Reusable work matrix for shifted triangular solves: only the
        # diagonal depends on the shift, so per-solve cost is O(n) setup
        # instead of an O(n²) allocate-and-add of ``T + alpha I``.  Held
        # per thread: concurrent callers (serve handler threads sharing
        # one cached factorization) each mutate their own copy, so
        # shifted solves are thread-safe.
        self._work = threading.local()

    def _shifted_t(self, alpha):
        work = getattr(self._work, "mat", None)
        if work is None:
            work = self._work.mat = self.t.copy()
            self._work.diag = _diagonal(work)
        self._work.diag[:] = self.eigenvalues + alpha
        return work

    def _check_shift(self, alpha):
        """Raise when ``A + alpha I`` is (numerically) singular."""
        gap = np.abs(self.eigenvalues + alpha).min()
        if gap <= _SINGULAR_RTOL * max(self._scale, abs(alpha)):
            raise NumericalError(
                f"shifted matrix A + ({alpha})I is numerically singular "
                f"(smallest |lambda + alpha| = {gap:.3e})"
            )

    def solve_shifted(self, alpha, rhs):
        """Solve ``(A + alpha I) x = rhs``.

        *rhs* may be a vector or a matrix of stacked right-hand sides.
        Returns a complex ndarray of the same shape.
        """
        self._check_shift(alpha)
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        w = self.q.conj().T @ rhs
        y = _solve_upper(self._shifted_t(alpha), w)
        x = self.q @ y
        return x[:, 0] if squeeze else x

    def solve_shifted_transpose(self, alpha, rhs):
        """Solve ``(Aᵀ + alpha I) x = rhs`` (plain transpose, no conjugate).

        Uses ``Aᵀ = conj(Q) Tᵀ Qᵀ``, so the substitution runs on the
        lower-triangular ``Tᵀ``.
        """
        self._check_shift(alpha)
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        w = self.q.T @ rhs
        # (Tᵀ + alpha I) y = w  solved as an upper-triangular transposed
        # system.
        y = _solve_upper(self._shifted_t(alpha), w, trans=1)
        x = self.q.conj() @ y
        return x[:, 0] if squeeze else x

    def matvec(self, x):
        """Apply ``A @ x`` using the factored form (mainly for testing)."""
        x = np.asarray(x, dtype=complex)
        return self.q @ (self.t @ (self.q.conj().T @ x))
