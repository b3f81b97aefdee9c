"""Linear Krylov-subspace model order reduction (PRIMA-style substrate).

Moment-matching projection for LTI systems: the orthonormal basis of
``K_q((A − s0 I)^{-1}, (A − s0 I)^{-1} B)`` matches ``q`` moments of the
transfer function about ``s0`` (block version for MIMO).  This is the
"workhorse" the paper builds on (its §1 cites PRIMA [9]); the associated
transform reduces the *nonlinear* problem to exactly this primitive.
"""

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int
from ..errors import ValidationError
from ..linalg.arnoldi import merge_bases
from ..linalg.lu import factorized_solver, shifted_matrix
from ..systems.lti import StateSpace
from .base import ReducedOrderModel

__all__ = ["krylov_basis", "reduce_lti"]


def krylov_basis(a, b, count, s0=0.0, tol=1e-10):
    """Orthonormal basis of the block shift-invert Krylov space.

    Parameters
    ----------
    a : (n, n) array_like or sparse
        Scipy sparse input is factored with a sparse LU (one
        :func:`~repro.linalg.lu.sparse_lu` of ``A − s0 I`` per expansion
        point, never densified); dense input
        takes the LAPACK path unchanged.
    b : (n,) or (n, m) array_like
        Block starting vectors.
    count : int
        Moments to match per input (chain length).
    s0 : complex
        Expansion point; must not be an eigenvalue of ``a``.
    tol : float
        Deflation tolerance for the final orthonormalization.
    """
    if not sp.issparse(a):
        a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValidationError(f"a must be square, got {a.shape}")
    b = np.asarray(b)
    if b.ndim == 1:
        b = b[:, None]
    count = check_positive_int(count, "count")
    shifted = shifted_matrix(a, s0)
    solve = factorized_solver(shifted)
    blocks = []
    current = b.astype(shifted.dtype)
    for _ in range(count):
        current = solve(current)
        blocks.append(current.copy())
    return merge_bases(blocks, tol=tol)


def reduce_lti(system, count, s0=0.0, tol=1e-10):
    """Moment-matching reduction of an LTI :class:`StateSpace`.

    Returns a :class:`ReducedOrderModel` whose ``system`` attribute is the
    projected :class:`StateSpace`; ``2*count`` is NOT claimed (one-sided
    Galerkin matches ``count`` moments per expansion point).
    """
    if not isinstance(system, StateSpace):
        raise ValidationError("reduce_lti expects a StateSpace")
    points = np.atleast_1d(np.asarray(s0))
    blocks = [
        krylov_basis(system.a, system.b, count, s0=point, tol=tol)
        for point in points
    ]
    basis = merge_bases(blocks, tol=tol)
    reduced = system.project(basis)
    return ReducedOrderModel(
        reduced,
        basis,
        method="linear-krylov",
        orders=(count,),
        expansion_points=tuple(points.tolist()),
    )
