"""Factorization-reuse resolvent solves — the library's solve substrate.

The paper's cost argument (§2.3) is that the associated-transform method
wins because *every* shifted solve reuses one factorization of the system
matrix.  This module is the reusable embodiment of that idea for the
plain resolvent ``(s I − G1)^{-1}``:

* :class:`ResolventFactory` factors ``G1`` **once** (complex Schur form
  for dense input, sparse LU per shift for sparse input) and then serves
  ``(s I − G1)^{-1} RHS`` for *any* shift ``s`` at ``O(n²)`` per solve
  (dense path) instead of the ``O(n³)`` of a fresh ``np.linalg.solve``.
* :meth:`ResolventFactory.solve_many` batches whole shift grids: the
  right-hand side is rotated into the Schur basis once, each shift costs
  one triangular substitution, and the back-rotation is a single GEMM
  over all shifts — the primitive behind the frequency responses in
  :mod:`repro.volterra.response`.
* :meth:`ResolventFactory.solve_columns` solves column ``k`` of a block
  at shift ``k`` — the multi-shift solve behind the grid-batched
  ``H2(s, s)`` / ``H3(s, s, s)`` kernels of a distortion sweep
  (:meth:`~repro.volterra.evaluator.VolterraEvaluator.sum_kernels`).
* :meth:`ResolventFactory.for_system` memoizes one factory per system
  object (invalidated when the state matrix is replaced), so distortion
  analysis, Volterra kernel evaluation and MOR basis construction on the
  same system all share a single factorization.

Everything caches *factorizations*, never answers: results are always
recomputed from the factored form, so cached and direct paths agree to
rounding.
"""

import threading
from collections import OrderedDict

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .._validation import as_square_matrix
from ..errors import NumericalError, TaskCancelled, ValidationError
from .lu import csc_pattern_digest, sparse_lu_shared
from .schur import SchurForm

__all__ = ["ResolventFactory", "matmul_columns"]

#: Relative threshold below which ``s I − G1`` is considered singular.
_SINGULAR_RTOL = 1e-13

#: Maximum number of per-shift sparse LU factorizations kept alive.
_SPARSE_LU_CACHE = 64

#: Serializes :meth:`ResolventFactory.for_system` so that concurrent
#: callers hammering the same system always observe exactly one factory.
_FOR_SYSTEM_LOCK = threading.RLock()


def matmul_columns(mat, block):
    """``mat @ block`` computed one column at a time.

    A dense GEMM runs its tail columns through a different BLAS kernel,
    so a column's last bits would depend on the batch around it.  The
    stacked product here runs one matrix-vector product per column
    (sparse products already accumulate column by column), so batched
    kernel columns come out identical whichever grid computed them.
    """
    if sp.issparse(mat):
        return mat @ block
    return np.matmul(mat, block.T[:, :, None])[:, :, 0].T


class _RealSparseLU:
    """Real SuperLU factorization serving complex right-hand sides.

    Real shifts on real matrices (DC moments, real H1 chains) factor in
    real arithmetic — roughly half the flops and memory of the complex
    factorization they previously paid — and complex right-hand sides
    are served by two real backsolves (still cheaper than one complex
    backsolve on a complex factorization).
    """

    __slots__ = ("_lu",)

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs, trans="N"):
        if np.iscomplexobj(rhs):
            real = self._lu.solve(np.ascontiguousarray(rhs.real), trans=trans)
            if np.any(rhs.imag):
                imag = self._lu.solve(
                    np.ascontiguousarray(rhs.imag), trans=trans
                )
                return real + 1j * imag
            return real.astype(complex)
        return self._lu.solve(np.ascontiguousarray(rhs), trans=trans)


class ResolventFactory:
    """Serve ``(s I − A)^{-1} RHS`` for arbitrary shifts from one setup.

    Parameters
    ----------
    a : (n, n) array_like or sparse
        System matrix.  Dense input is Schur-factored once (``A = Q T Qᴴ``,
        so ``(s I − A)^{-1} = Q (s I − T)^{-1} Qᴴ`` and every shift costs
        one triangular substitution).  Sparse input keeps its CSC form and
        caches one sparse LU per distinct shift (bounded LRU); **real**
        sparse input additionally keeps the matrix real, so real shifts
        (DC moments, real H1 chains) factor in real arithmetic — about
        half the flops and memory — and only complex shifts pay the
        complex cast (see :class:`_RealSparseLU`).
    schur : SchurForm, optional
        Precomputed factorization of a dense ``a`` to share (e.g. from an
        :class:`~repro.volterra.associated.AssociatedWorkspace`).

    Attributes
    ----------
    matrix : the matrix handed in (identity is used for cache checks).
    schur : SchurForm or None (dense path only).
    solve_count : number of resolvent applications served so far.
    """

    def __init__(self, a, schur=None):
        self._lock = threading.RLock()
        if sp.issparse(a):
            if a.shape[0] != a.shape[1]:
                raise ValidationError(
                    f"a must be square, got shape {a.shape}"
                )
            self.matrix = a
            self.n = a.shape[0]
            self.schur = None
            # Real input keeps a real CSC: real shifts then factor in
            # real arithmetic (see _RealSparseLU); the complex form is
            # built lazily only when a complex shift actually arrives.
            dtype = complex if a.dtype.kind == "c" else float
            self._csc = sp.csc_matrix(a, copy=False).astype(dtype)
            self._real = dtype is float
            self._eye = sp.identity(self.n, dtype=dtype, format="csc")
            self._csc_complex = None if self._real else self._csc
            self._eye_complex = None if self._real else self._eye
            self._lu_cache = OrderedDict()
            # Pattern digest of the shifted matrix (sI − A) per
            # arithmetic kind, computed from the first factorization:
            # the shift only changes values, so one digest per kind
            # serves every subsequent shift — and every *other* factory
            # over the same sparsity pattern (parametric corners).
            self._shift_pattern = {}
            self.sparse_lu_stats = {
                "real": 0,
                "complex": 0,
                "symbolic_analyses": 0,
                "symbolic_reuses": 0,
            }
        else:
            dense = as_square_matrix(a, "a")
            self.matrix = a if isinstance(a, np.ndarray) else dense
            self.n = dense.shape[0]
            if schur is not None and schur.n != dense.shape[0]:
                raise ValidationError(
                    "precomputed Schur form has mismatching dimension"
                )
            self.schur = schur if schur is not None else SchurForm(dense)
            # Work matrix for (s I − T): off-diagonals are fixed at −T,
            # only the diagonal changes per shift.  One copy per thread,
            # so concurrent callers (serve handler threads sharing this
            # factory) never trample each other.
            self._neg_t = -self.schur.t
            (self._trtrs,) = sla.get_lapack_funcs(("trtrs",), (self._neg_t,))
            self._work = threading.local()
            self._diag = self.schur.eigenvalues
            self._scale = max(np.abs(self._diag).max(), 1.0)
        self.solve_count = 0

    # -- cache management ----------------------------------------------------

    @classmethod
    def for_system(cls, system, attr="_resolvent_factory"):
        """One factory per system object, keyed on the state matrix.

        Works for anything exposing ``.g1`` (polynomial systems) or ``.a``
        (LTI state spaces).  The cache is invalidated when the state
        matrix attribute is rebound to a different array; callers that
        mutate matrices *in place* must drop the cached attribute
        themselves.
        """
        mat = getattr(system, "g1", None)
        if mat is None:
            mat = getattr(system, "a", None)
        if mat is None:
            raise ValidationError(
                "system exposes neither .g1 nor .a; cannot build a "
                "resolvent factory"
            )
        def _lookup():
            cached = getattr(system, attr, None)
            if cached is not None and cached.matrix is mat:
                return cached
            return None

        # Compute-outside-lock, first-insert-wins: concurrent callers
        # racing on one cold system may factor G1 twice (identical
        # results, the first insert is what everyone returns), but the
        # global lock is never held across the O(n³) factorization — a
        # cold build on one system cannot stall lookups on others.
        with _FOR_SYSTEM_LOCK:
            cached = _lookup()
            if cached is not None:
                return cached
        factory = cls(mat)
        with _FOR_SYSTEM_LOCK:
            cached = _lookup()
            if cached is not None:
                return cached
            try:
                setattr(system, attr, factory)
            except AttributeError:
                pass
            return factory

    # -- internals -----------------------------------------------------------

    def _check_shift(self, s):
        gap = np.abs(s - self._diag).min()
        if gap <= _SINGULAR_RTOL * max(self._scale, abs(s)):
            raise NumericalError(
                f"resolvent shift s = {s} is numerically an eigenvalue "
                f"(smallest |s - lambda| = {gap:.3e})"
            )

    def _csc_as_complex(self):
        """The complex CSC pair (matrix, identity), built lazily."""
        with self._lock:
            if self._csc_complex is None:
                self._csc_complex = self._csc.astype(complex)
                self._eye_complex = sp.identity(
                    self.n, dtype=complex, format="csc"
                )
            return self._csc_complex, self._eye_complex

    def _factor_shift(self, key):
        """Factor ``(key I − A)`` — real arithmetic for real shifts on
        real matrices, complex otherwise."""
        # sparse_lu's pivot guard mirrors the dense path's eigenvalue-gap
        # check: a shift numerically on the spectrum raises instead of
        # returning a garbage backsolve silently.  The factorization
        # goes through the shared symbolic-analysis cache: the
        # fill-reducing column ordering is computed once per sparsity
        # pattern (module-wide, so parametric corners with identical
        # CSR structure share it) and later shifts/corners pay a
        # numeric-only refactorization.
        try:
            if self._real and key.imag == 0.0:
                kind = "real"
                shifted = self._csc * (-1.0) + key.real * self._eye
            else:
                kind = "complex"
                csc, eye = self._csc_as_complex()
                shifted = csc * (-1.0) + key * eye
            pattern = self._shift_pattern.get(kind)
            if pattern is None:
                pattern = csc_pattern_digest(shifted)
                with self._lock:
                    self._shift_pattern.setdefault(kind, pattern)
            lu, reused = sparse_lu_shared(shifted, pattern)
            if kind == "real":
                lu = _RealSparseLU(lu)
        except NumericalError as exc:
            raise NumericalError(
                f"sparse LU of (sI - A) at s = {key}: {exc}"
            ) from exc
        with self._lock:
            self.sparse_lu_stats[kind] += 1
            self.sparse_lu_stats[
                "symbolic_reuses" if reused else "symbolic_analyses"
            ] += 1
        return lu

    def _sparse_lu(self, s):
        key = complex(s)
        with self._lock:
            lu = self._lu_cache.get(key)
            if lu is not None:
                # True LRU: a hit refreshes recency so hot shifts survive
                # long sweeps over many other shifts.
                self._lu_cache.move_to_end(key)
                return lu
        # Factor outside the lock so concurrent distinct shifts overlap;
        # two threads racing on the *same* cold shift duplicate the
        # factorization (identical results) and the first insert wins.
        lu = self._factor_shift(key)
        with self._lock:
            existing = self._lu_cache.get(key)
            if existing is not None:
                self._lu_cache.move_to_end(key)
                return existing
            self._lu_cache[key] = lu
            if len(self._lu_cache) > _SPARSE_LU_CACHE:
                self._lu_cache.popitem(last=False)
        return lu

    def _triangular(self, s, w):
        """Solve ``(s I − T) y = w`` on this thread's −T work matrix."""
        self._check_shift(s)
        work = getattr(self._work, "mat", None)
        if work is None:
            work = self._neg_t.copy()
            self._work.mat = work
        np.fill_diagonal(work, s - self._diag)
        # LAPACK trtrs called exactly as ``sla.solve_triangular`` calls
        # it for a C-ordered matrix (the transposed lower system), so
        # the result is bit-identical without its per-call validation —
        # which cost more than the substitution itself at ROM sizes.
        y, info = self._trtrs(work.T, w, lower=1, trans=1)
        if info != 0:
            raise NumericalError(
                f"triangular resolvent solve at s = {s} failed "
                f"(LAPACK info {info})"
            )
        return y

    # -- public API ----------------------------------------------------------

    def solve(self, s, rhs):
        """Solve ``(s I − A) x = rhs`` for one shift.

        *rhs* may be a vector or a matrix of stacked right-hand sides;
        the result is complex with the same shape.
        """
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        mat = rhs[:, None] if squeeze else rhs
        if mat.shape[0] != self.n:
            raise ValidationError(
                f"rhs has {mat.shape[0]} rows, expected {self.n}"
            )
        with self._lock:
            self.solve_count += mat.shape[1]
        if self.schur is None:
            x = self._sparse_lu(s).solve(np.ascontiguousarray(mat))
        else:
            w = self.schur.q.conj().T @ mat
            x = self.schur.q @ self._triangular(s, w)
        return x[:, 0] if squeeze else x

    def solve_transpose(self, s, rhs):
        """Solve ``(s I − Aᵀ) x = rhs`` for one shift.

        Reuses the same factorization as :meth:`solve`: the dense path
        runs the transposed triangular substitution on the shared Schur
        form; the sparse path serves ``(s I − A)ᵀ x = rhs`` from the
        cached per-shift sparse LU via a transposed backsolve — no second
        factorization.  This is what lets the low-rank Π Sylvester
        iteration (:mod:`repro.linalg.sylvester`) generate its
        ``G1ᵀ``-sided Krylov directions at circuit scale.
        """
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        mat = rhs[:, None] if squeeze else rhs
        if mat.shape[0] != self.n:
            raise ValidationError(
                f"rhs has {mat.shape[0]} rows, expected {self.n}"
            )
        with self._lock:
            self.solve_count += mat.shape[1]
        if self.schur is None:
            x = self._sparse_lu(s).solve(
                np.ascontiguousarray(mat), trans="T"
            )
        else:
            # (s I − Aᵀ) x = rhs  ⇔  (Aᵀ + (−s) I) x = −rhs.
            x = -self.schur.solve_shifted_transpose(-s, mat)
        return x[:, 0] if squeeze else x

    def solve_many(self, shifts, rhs):
        """Solve ``(s I − A) x = rhs`` for a whole grid of shifts.

        Parameters
        ----------
        shifts : sequence of complex
        rhs : (n,) or (n, m) array_like
            Shared right-hand side (e.g. the input matrix ``B`` for a
            frequency sweep of ``H1``).

        Returns
        -------
        (len(shifts), n) or (len(shifts), n, m) complex ndarray.

        On the dense path the basis rotations are hoisted out of the
        shift loop: one ``Qᴴ RHS`` up front, one ``Q @ [y_1 | y_2 | ...]``
        GEMM at the end, and a single triangular substitution per shift.
        A shift on the spectrum raises
        :class:`~repro.errors.NumericalError`.
        """
        shifts = np.atleast_1d(np.asarray(shifts, dtype=complex))
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        mat = rhs[:, None] if squeeze else rhs
        if mat.shape[0] != self.n:
            raise ValidationError(
                f"rhs has {mat.shape[0]} rows, expected {self.n}"
            )
        k, m = shifts.size, mat.shape[1]
        with self._lock:
            self.solve_count += k * m
        if self.schur is None:
            dense_rhs = np.ascontiguousarray(mat)
            out = np.empty((k, self.n, m), dtype=complex)
            for idx in range(k):
                out[idx] = self._sparse_lu(shifts[idx]).solve(dense_rhs)
        else:
            w = self.schur.q.conj().T @ mat
            ys = np.empty((self.n, k * m), dtype=complex)
            for idx in range(k):
                ys[:, idx * m : (idx + 1) * m] = self._triangular(
                    shifts[idx], w
                )
            x = self.schur.q @ ys
            out = np.moveaxis(x.reshape(self.n, k, m), 1, 0)
        return out[:, :, 0] if squeeze else out

    def solve_columns(self, shifts, rhs, cancel=None):
        """Solve ``(s_k I − A) x_k = rhs[:, k]`` — column ``k`` at shift ``k``.

        Parameters
        ----------
        shifts : sequence of K complex
        rhs : (n, K) array_like
        cancel : callable, optional
            Polled before each per-shift sparse factorization; once it
            reports True the solve raises
            :class:`~repro.errors.TaskCancelled`.

        Returns
        -------
        (n, K) complex ndarray.

        The dense path is one ``Qᴴ`` product, K triangular substitutions
        on this thread's work matrix and one ``Q`` product, both products
        taken column by column (:func:`matmul_columns`); the sparse path
        solves each column on the cached LU of its shift.  Column ``k``
        is bit-identical to ``solve(shifts[k], rhs[:, k:k+1])`` in any
        batch, which lets memoized kernel columns serve later sweeps
        over other grids.
        """
        shifts = np.atleast_1d(np.asarray(shifts, dtype=complex))
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape != (self.n, shifts.size):
            raise ValidationError(
                f"rhs has shape {rhs.shape}, expected "
                f"({self.n}, {shifts.size}): one column per shift"
            )
        with self._lock:
            self.solve_count += shifts.size
        if self.schur is None:
            out = np.empty_like(rhs)
            for idx, s in enumerate(shifts):
                if cancel is not None and cancel():
                    raise TaskCancelled(
                        "multi-shift solve cancelled between "
                        "per-shift factorizations"
                    )
                out[:, idx : idx + 1] = self._sparse_lu(s).solve(
                    np.ascontiguousarray(rhs[:, idx : idx + 1])
                )
            return out
        rotated = matmul_columns(self.schur.q.conj().T, rhs)
        for idx, s in enumerate(shifts):
            col = slice(idx, idx + 1)
            rotated[:, col] = self._triangular(s, rotated[:, col])
        return matmul_columns(self.schur.q, rotated)

    def matvec(self, x):
        """Apply ``A @ x`` (testing convenience)."""
        if self.schur is None:
            return self._csc @ np.asarray(x, dtype=complex)
        return self.schur.matvec(x)
