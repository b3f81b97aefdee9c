"""Shared one-shot LU helpers (sparse-aware).

:func:`sparse_lu` is the one home of the sparse LU (error mapping plus
the near-singular pivot guard shared with
:class:`~repro.linalg.resolvent.ResolventFactory`'s sparse branch).  A
banded pattern (see :data:`_BAND_STORAGE_RATIO`) is factored by LAPACK's
band LU with partial pivoting (:class:`BandLU`; Golub & Van Loan,
*Matrix Computations*, 4th ed., §4.3), any other by SuperLU, behind one
``solve(rhs, trans)`` contract.
:func:`factorized_solver` layers the sparse/dense dispatch on top for
callers that just need a ``solve`` callable — the shift-invert Krylov
chains (:mod:`repro.mor.krylov`, :mod:`repro.mor.norm`) and the
variational integrator (:mod:`repro.volterra.response`).  Chord-Newton
(:mod:`repro.simulation.newton`) wraps :func:`sparse_lu` in its own
cache-facing factorization objects instead, because the chord cache
tracks which storage form it holds.
"""

import hashlib
import threading
from collections import OrderedDict

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import NumericalError

__all__ = [
    "BandLU",
    "band_storage",
    "csc_pattern_digest",
    "factorized_solver",
    "shifted_matrix",
    "sparse_lu",
    "sparse_lu_shared",
    "symbolic_cache_stats",
]

#: A sparse-LU U-pivot smaller than this multiple of the largest pivot
#: marks the matrix numerically singular (mirrors the dense Schur
#: eigenvalue-gap threshold in the resolvent factory).
_PIVOT_RTOL = 1e-13

#: Distinct sparsity patterns whose fill-reducing column orderings are
#: kept alive for :func:`sparse_lu_shared`.  A parametric corner sweep
#: uses exactly one pattern; the bound only matters when many unrelated
#: systems interleave.
_SYMBOLIC_CACHE_CAP = 32

#: A square pattern takes the band route when LAPACK's band storage of
#: its natural-order bandwidths — ``(2·kl + ku + 1)·n`` slots, the band
#: plus ``kl`` rows of pivoting fill — is at most this many times its
#: stored entries.  A full band of any width reads at most 1.5
#: (tridiagonal: 4n slots for 3n − 2 entries); a dense pattern reads 3
#: and a 2-D m×m grid about (3m + 1)/5, so both stay on SuperLU.
_BAND_STORAGE_RATIO = 2.0

_SYMBOLIC_LOCK = threading.Lock()
#: pattern digest -> SuperLU ``perm_c`` ndarray, or ``(kl, ku)`` for a
#: pattern on the band route.
_SYMBOLIC_CACHE = OrderedDict()


def _guard_pivots(pivots):
    pivots = np.abs(pivots)
    if pivots.size and pivots.min() <= _PIVOT_RTOL * pivots.max():
        raise NumericalError(
            "matrix is numerically singular (sparse LU pivot ratio "
            f"{pivots.min() / max(pivots.max(), 1e-300):.3e})"
        )


def _splu(csc, guard, **options):
    try:
        lu = spla.splu(csc, **options)
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU failed: {exc}") from exc
    if guard:
        _guard_pivots(lu.U.diagonal())
    return lu


def _offsets(csc):
    """Column index and ``row − column`` offset of every stored entry."""
    cols = np.repeat(np.arange(csc.shape[1]), np.diff(csc.indptr))
    return cols, csc.indices - cols


def _band_plan(csc):
    """``(kl, ku)`` when *csc*'s pattern takes the band route, else None."""
    n = csc.shape[0]
    if n != csc.shape[1] or csc.nnz == 0:
        return None
    _, offset = _offsets(csc)
    kl, ku = max(int(offset.max()), 0), max(-int(offset.min()), 0)
    if (2 * kl + ku + 1) * n <= _BAND_STORAGE_RATIO * csc.nnz:
        return kl, ku
    return None


def band_storage(mat, kl, ku):
    """LAPACK ``gbtrf`` storage of sparse *mat* with bandwidths kl, ku.

    Returns a Fortran-ordered float64 or complex128 ``(2·kl + ku + 1, n)``
    array with ``A[i, j]`` at ``[kl + ku + i − j, j]`` (the diagonal is
    row ``kl + ku``), or None when a stored entry lies outside the band.
    """
    csc = sp.csc_matrix(mat)
    if not csc.has_canonical_format:
        csc = csc.copy()
        csc.sum_duplicates()
    cols, offset = _offsets(csc)
    if offset.size and (offset.max() > kl or -offset.min() > ku):
        return None
    dtype = np.result_type(csc.dtype, np.float64)
    ab = np.zeros((2 * kl + ku + 1, csc.shape[1]), dtype=dtype, order="F")
    ab[kl + ku + offset, cols] = csc.data
    return ab


class BandLU:
    """LAPACK band LU (``gbtrf``) with SuperLU's ``solve`` contract.

    Factors *ab* (:func:`band_storage` layout) in place with partial
    pivoting.  An exactly zero pivot raises
    :class:`~repro.errors.NumericalError` whatever *guard* says, as
    SuperLU does; with *guard* a U pivot ratio at or below
    ``_PIVOT_RTOL`` raises too.
    """

    __slots__ = ("kl", "ku", "_lu", "_piv", "_gbtrs")

    def __init__(self, ab, kl, ku, guard=True):
        gbtrf, self._gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self._lu, self._piv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
        if info > 0:
            raise NumericalError(
                f"band LU failed: matrix is exactly singular (U[{info - 1}, "
                f"{info - 1}] = 0)"
            )
        self.kl, self.ku = kl, ku
        if guard:
            _guard_pivots(self._lu[kl + ku])

    def solve(self, rhs, trans="N"):
        """Solve ``A x = rhs`` (``trans`` ``'T'``: ``Aᵀ``, ``'H'``: ``Aᴴ``)
        for a vector or a block of right-hand sides."""
        code = {"N": 0, "T": 1, "H": 2}.get(trans)
        if code is None:
            raise ValueError(f"unsupported trans {trans!r}")
        rhs = np.asarray(rhs).astype(
            self._lu.dtype, order="F", casting="safe"
        )
        x, _ = self._gbtrs(
            self._lu, self.kl, self.ku, rhs, self._piv, trans=code,
            overwrite_b=True,
        )
        return x


def sparse_lu(mat, guard=True):
    """Sparse LU of a square matrix: :class:`BandLU` on a banded
    pattern (see :data:`_BAND_STORAGE_RATIO`), SuperLU otherwise.

    With *guard* (the default) a vanishing U pivot raises
    :class:`~repro.errors.NumericalError` instead of letting the
    backsolve return garbage silently.  Chord-Newton passes
    ``guard=False``: its near-singular iteration matrices are recovered
    by backtracking/refresh, matching the dense LAPACK behavior.
    """
    csc = sp.csc_matrix(mat)
    band = _band_plan(csc)
    if band is not None:
        return BandLU(band_storage(csc, *band), *band, guard)
    return _splu(csc, guard)


def csc_pattern_digest(mat):
    """Content digest of a sparse matrix's CSC sparsity pattern.

    Hashes shape + ``indptr`` + ``indices`` (never the data), so two
    matrices with the same structure — e.g. every corner of a parameter
    sweep — share one digest regardless of their numeric values.
    """
    csc = mat if sp.issparse(mat) and mat.format == "csc" \
        else sp.csc_matrix(mat)
    digest = hashlib.sha256()
    digest.update(repr(csc.shape).encode())
    digest.update(np.ascontiguousarray(csc.indptr).tobytes())
    digest.update(np.ascontiguousarray(csc.indices).tobytes())
    return digest.hexdigest()


class _PermutedLU:
    """SuperLU factorization of a column-pre-permuted matrix.

    Wraps ``splu(A[:, perm])`` so callers see solves in the original
    column order: ``A x = b`` with ``x = Π y`` where ``A[:, perm] y = b``
    (and the transposed/adjoint variants permute the right-hand side
    instead).  Exposes ``.U``/``.L`` of the underlying factorization for
    the pivot guard.
    """

    __slots__ = ("_lu", "_perm")

    def __init__(self, lu, perm):
        self._lu = lu
        self._perm = perm

    @property
    def U(self):
        return self._lu.U

    @property
    def L(self):
        return self._lu.L

    def solve(self, rhs, trans="N"):
        if trans == "N":
            y = self._lu.solve(np.ascontiguousarray(rhs))
            out = np.empty_like(y)
            out[self._perm] = y
            return out
        if trans in ("T", "H"):
            permuted = np.ascontiguousarray(np.asarray(rhs)[self._perm])
            return self._lu.solve(permuted, trans=trans)
        raise ValueError(f"unsupported trans {trans!r}")


def sparse_lu_shared(mat, pattern, guard=True):
    """Factor *mat* reusing the symbolic analysis cached for *pattern*.

    The analysis reads the pattern alone and runs once per pattern: the
    band-route decision of :func:`sparse_lu` and, off the band route,
    SuperLU's fill-reducing column ordering (SuperLU has no public
    symbolic/numeric split, but the ordering is its expensive
    structural work).  The cache keeps ``(kl, ku)`` or ``perm_c``; later
    factorizations of the *same* pattern (every corner of a parameter
    sweep, every shift of one resolvent factory) are a :class:`BandLU`
    of those bandwidths, or pre-permute the columns and factor with
    ``permc_spec="NATURAL"``, i.e. a numeric-only refactorization under
    the shared ordering.  Row (partial) pivoting still runs per matrix,
    so the numerics are those of a fresh factorization.

    *pattern* is the :func:`csc_pattern_digest` of *mat* (callers cache
    it; a digest from a different pattern degrades fill quality but
    never correctness).  Returns ``(lu, reused)`` where *reused* tells
    whether the cached ordering served this factorization.
    """
    csc = sp.csc_matrix(mat)
    with _SYMBOLIC_LOCK:
        plan = _SYMBOLIC_CACHE.get(pattern)
        if plan is not None:
            _SYMBOLIC_CACHE.move_to_end(pattern)
    if isinstance(plan, tuple):
        ab = band_storage(csc, *plan)
        if ab is not None:
            return BandLU(ab, *plan, guard), True
    elif plan is not None and plan.shape[0] == csc.shape[1]:
        lu = _splu(csc[:, plan], guard, permc_spec="NATURAL")
        return _PermutedLU(lu, plan), True
    lu = sparse_lu(csc, guard)
    if isinstance(lu, BandLU):
        plan = (lu.kl, lu.ku)
    else:
        plan = np.asarray(lu.perm_c).copy()
    with _SYMBOLIC_LOCK:
        _SYMBOLIC_CACHE[pattern] = plan
        while len(_SYMBOLIC_CACHE) > _SYMBOLIC_CACHE_CAP:
            _SYMBOLIC_CACHE.popitem(last=False)
    return lu, False


def symbolic_cache_stats():
    """Size snapshot of the shared symbolic-analysis cache (tests)."""
    with _SYMBOLIC_LOCK:
        return {"patterns": len(_SYMBOLIC_CACHE)}


def shifted_matrix(a, shift):
    """``A − shift·I`` in storage and dtype matching *a* and *shift*.

    Sparse input stays sparse (CSC, ready for ``splu``); dense input
    relies on numpy's dtype promotion for complex shifts.
    """
    n = a.shape[0]
    if sp.issparse(a):
        complex_shift = (
            np.iscomplexobj(np.asarray(shift)) and np.imag(shift) != 0.0
        )
        dtype = complex if complex_shift or a.dtype.kind == "c" else float
        return sp.csc_matrix(
            a.astype(dtype)
            - shift * sp.identity(n, dtype=dtype, format="csc")
        )
    return np.asarray(a) - shift * np.eye(n)


def factorized_solver(mat):
    """Factor *mat* once and return a ``solve(rhs)`` callable.

    Sparse matrices go through :func:`sparse_lu` (band LU or SuperLU)
    with a pivot-ratio singularity guard (raising
    :class:`~repro.errors.NumericalError`); dense ones through LAPACK
    ``lu_factor`` with its native error behavior.
    """
    if sp.issparse(mat):
        return sparse_lu(mat).solve
    lu = sla.lu_factor(mat)

    def solve(rhs):
        return sla.lu_solve(lu, rhs)

    return solve
