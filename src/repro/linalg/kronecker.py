"""Kronecker-product and Kronecker-sum algebra.

This module is the algebraic substrate of the associated-transform method:
the paper's lifted realizations are built from Kronecker products (``⊗``),
Kronecker sums (``⊕``) and their repeated forms, written in the paper as
``M 2©`` (``M ⊗ M``) and ``2© M`` (``M ⊕ M``).

Conventions
-----------
``vec`` is **row-major** (numpy's default ``reshape(-1)``).  With that
convention, for ``X`` of shape ``(p, q)``::

    (A ⊗ B) vec(X) = vec(A @ X @ B.T)

where ``A`` has ``p`` columns and ``B`` has ``q`` columns.  Every routine
in :mod:`repro.linalg` that reshapes vectors states shapes in terms of
this convention.

The Kronecker sum of square ``A`` (n_A × n_A) and ``B`` (n_B × n_B) is::

    A ⊕ B = A ⊗ I_{n_B} + I_{n_A} ⊗ B

and satisfies ``exp(A ⊕ B) = exp(A) ⊗ exp(B)``, the identity behind the
paper's Theorem 1.
"""

import numpy as np
import scipy.sparse as sp

from .._validation import as_square_matrix, check_positive_int
from ..errors import ValidationError
from ._hotloops import scatter_add_rows

__all__ = [
    "kron",
    "kron_many",
    "kron_power",
    "kron_sum",
    "kron_sum_many",
    "kron_sum_power",
    "vec",
    "unvec",
    "kron_matvec",
    "kron_sum_matvec",
    "kron_sum_power_matvec",
    "sparse_kron_apply",
    "mode_apply",
    "commutation_matrix",
    "symmetrize_pair",
]


def kron(a, b):
    """Kronecker product that preserves sparsity.

    Returns a CSR matrix when either operand is sparse, otherwise a dense
    ndarray (``numpy.kron``).
    """
    if sp.issparse(a) or sp.issparse(b):
        return sp.kron(sp.csr_matrix(a), sp.csr_matrix(b), format="csr")
    return np.kron(np.asarray(a), np.asarray(b))


def kron_many(matrices):
    """Kronecker product of a sequence of matrices, left to right."""
    matrices = list(matrices)
    if not matrices:
        raise ValidationError("kron_many requires at least one matrix")
    out = matrices[0]
    for mat in matrices[1:]:
        out = kron(out, mat)
    return out


def kron_power(matrix, k):
    """``matrix ⊗ matrix ⊗ ... ⊗ matrix`` with *k* factors.

    This is the paper's superscript-circled notation ``M k©``; vectors are
    supported (``b 2© = b ⊗ b``).
    """
    k = check_positive_int(k, "k")
    return kron_many([matrix] * k)


def _eye_like(matrix, n):
    """Identity of size n, sparse when *matrix* is sparse."""
    if sp.issparse(matrix):
        return sp.identity(n, dtype=matrix.dtype, format="csr")
    return np.eye(n, dtype=np.asarray(matrix).dtype)


def kron_sum(a, b):
    """Kronecker sum ``A ⊕ B = A ⊗ I + I ⊗ B`` of two square matrices."""
    a_sq = a if sp.issparse(a) else as_square_matrix(a, "a")
    b_sq = b if sp.issparse(b) else as_square_matrix(b, "b")
    if sp.issparse(a_sq) and a_sq.shape[0] != a_sq.shape[1]:
        raise ValidationError(f"a must be square, got shape {a_sq.shape}")
    if sp.issparse(b_sq) and b_sq.shape[0] != b_sq.shape[1]:
        raise ValidationError(f"b must be square, got shape {b_sq.shape}")
    na = a_sq.shape[0]
    nb = b_sq.shape[0]
    return kron(a_sq, _eye_like(b_sq, nb)) + kron(_eye_like(a_sq, na), b_sq)


def kron_sum_many(matrices):
    """Kronecker sum of a sequence of square matrices (associative)."""
    matrices = list(matrices)
    if not matrices:
        raise ValidationError("kron_sum_many requires at least one matrix")
    out = matrices[0]
    for mat in matrices[1:]:
        out = kron_sum(out, mat)
    return out


def kron_sum_power(matrix, k):
    """``matrix ⊕ matrix ⊕ ... ⊕ matrix`` with *k* terms.

    This is the paper's prefixed-circled notation ``k© M``; e.g.
    ``kron_sum_power(G1, 2) = G1 ⊗ I + I ⊗ G1``.
    """
    k = check_positive_int(k, "k")
    return kron_sum_many([matrix] * k)


def vec(matrix):
    """Row-major vectorization (see module docstring)."""
    if sp.issparse(matrix):
        matrix = matrix.toarray()
    return np.asarray(matrix).reshape(-1)


def unvec(vector, shape):
    """Inverse of :func:`vec`: reshape a vector to *shape* row-major."""
    vector = np.asarray(vector)
    expected = int(np.prod(shape))
    if vector.size != expected:
        raise ValidationError(
            f"cannot unvec length-{vector.size} vector to shape {tuple(shape)}"
        )
    return vector.reshape(shape)


def kron_matvec(factors, x):
    """Apply ``(F_1 ⊗ F_2 ⊗ ... ⊗ F_k) @ x`` without forming the product.

    Parameters
    ----------
    factors : sequence of 2-D arrays
        The Kronecker factors, ``F_i`` of shape ``(m_i, n_i)``.
    x : ndarray
        Vector of length ``prod(n_i)`` (row-major multi-index ordering).

    Returns
    -------
    ndarray of length ``prod(m_i)``.

    Notes
    -----
    Implemented as successive tensor mode products; cost is
    ``O(prod(n) * sum(m_i))`` instead of forming a ``prod(m) × prod(n)``
    matrix.
    """
    factors = [f if sp.issparse(f) else np.asarray(f) for f in factors]
    if not factors:
        raise ValidationError("kron_matvec requires at least one factor")
    in_dims = [f.shape[1] for f in factors]
    x = np.asarray(x)
    if x.size != int(np.prod(in_dims)):
        raise ValidationError(
            f"x has length {x.size}, expected {int(np.prod(in_dims))}"
        )
    tensor = x.reshape(in_dims)
    for axis, factor in enumerate(factors):
        tensor = mode_apply(tensor, factor, axis)
    return tensor.reshape(-1)


def sparse_kron_apply(mat, factors, columnwise=False):
    """Compute ``mat @ kron(*factors)`` without forming the product.

    Parameters
    ----------
    mat : sparse (p, prod(n_t)) matrix
        Sparse coefficient matrix whose column index is the row-major
        multi-index over the factor row dimensions (e.g. ``G2`` over
        ``(i, j)``, ``G3`` over ``(i, j, k)``).
    factors : sequence of (n_t, m_t) ndarrays
        Kronecker factors (dense; typically memoized ``H1``/``H2``
        blocks).
    columnwise : bool
        Treat the factors' columns as a batch axis instead: every factor
        is ``(n_t, K)`` and column ``k`` of the ``(p, K)`` result is
        ``mat @ (f_1[:, k] ⊗ … ⊗ f_d[:, k])`` — *mat* applied to the
        column-wise Kronecker (Khatri–Rao) product.  A distortion sweep
        contracts its whole frequency grid in one call this way.  Each
        result column depends on its own factor columns only, bit for
        bit, whatever the batch around it.

    Returns
    -------
    (p, prod(m_t)) ndarray, or (p, K) with *columnwise*.

    Notes
    -----
    This is the streaming contraction behind the Volterra kernel
    assembly: ``G3 @ kron(H1, H1, H1)`` costs ``O(nnz · m³)`` time and
    memory here, versus the ``O(n³ m³)`` dense intermediate of
    materializing the Kronecker product first (84 MB at ``n = 120``,
    out-of-memory by ``n ≈ 500``).
    """
    factors = [np.asarray(f) for f in factors]
    if not factors:
        raise ValidationError("sparse_kron_apply requires >= 1 factor")
    if any(f.ndim != 2 for f in factors):
        raise ValidationError("factors must be 2-D matrices")
    in_dims = [f.shape[0] for f in factors]
    expected = int(np.prod(in_dims))
    if mat.shape[1] != expected:
        raise ValidationError(
            f"mat has {mat.shape[1]} columns, expected prod(n_t) = "
            f"{expected}"
        )
    if columnwise:
        batch = {f.shape[1] for f in factors}
        if len(batch) != 1:
            raise ValidationError(
                "columnwise factors must share one column count, got "
                f"{sorted(batch)}"
            )
        out_cols = batch.pop()
    else:
        out_cols = int(np.prod([f.shape[1] for f in factors]))
    # COO input passes through untouched, so hot loops (the Volterra
    # kernel assembly contracts the same G2/G3 at every frequency
    # triple) can convert once and reuse.
    coo = mat if isinstance(mat, sp.coo_matrix) else sp.coo_matrix(mat)
    dtype = np.result_type(coo.data, *factors)
    out = np.zeros((mat.shape[0], out_cols), dtype=dtype)
    if coo.nnz == 0:
        return out
    # Decompose the flat column index into one index array per factor.
    idx = coo.col
    parts = []
    for nd in reversed(in_dims):
        parts.append(idx % nd)
        idx = idx // nd
    parts.reverse()
    gathered = [f[p] for f, p in zip(factors, parts)]  # (nnz, m_t) each
    # Per nonzero: the product of its factor rows — elementwise over a
    # shared batch axis, else their row-major outer (Kronecker) product.
    contrib = coo.data[:, None] * gathered[0]
    for g in gathered[1:]:
        if columnwise:
            contrib = contrib * g
        else:
            contrib = (contrib[:, :, None] * g[:, None, :]).reshape(
                coo.nnz, -1
            )
    scatter_add_rows(out, coo.row, contrib)
    return out


def mode_apply(tensor, matrix, axis):
    """Tensor mode product: contract *matrix* with *tensor* along *axis*.

    ``result[..., i, ...] = sum_j matrix[i, j] * tensor[..., j, ...]``
    with the contracted index at position *axis* in both tensors.
    """
    tensor = np.asarray(tensor)
    moved = np.moveaxis(tensor, axis, 0)
    lead = moved.shape[0]
    flat = moved.reshape(lead, -1)
    if sp.issparse(matrix):
        out_flat = matrix @ flat
        out_lead = matrix.shape[0]
    else:
        matrix = np.asarray(matrix)
        out_flat = matrix @ flat
        out_lead = matrix.shape[0]
    out = out_flat.reshape((out_lead,) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)


def kron_sum_matvec(a, b, x):
    """Apply ``(A ⊕ B) @ x`` without forming the Kronecker sum.

    ``x`` is ``vec(X)`` with ``X`` of shape ``(n_A, n_B)`` (row-major), and
    ``(A ⊕ B) vec(X) = vec(A @ X + X @ B.T)``.
    """
    na = a.shape[0]
    nb = b.shape[0]
    x_mat = unvec(np.asarray(x), (na, nb))
    out = a @ x_mat + (b @ x_mat.T).T
    return out.reshape(-1)


def kron_sum_power_matvec(a, k, x):
    """Apply ``(k© A) @ x = (A ⊕ ... ⊕ A) @ x`` matrix-free.

    ``x`` is interpreted as a row-major tensor with *k* axes of length
    ``n``; each axis gets one mode product with ``A`` and the results are
    summed (the derivative-of-Kronecker-power structure).
    """
    k = check_positive_int(k, "k")
    n = a.shape[0]
    tensor = np.asarray(x).reshape((n,) * k)
    out = np.zeros_like(tensor, dtype=np.result_type(tensor, a.dtype))
    for axis in range(k):
        out += mode_apply(tensor, a, axis)
    return out.reshape(-1)


def commutation_matrix(m, n, sparse=True):
    """The commutation (perfect-shuffle) matrix ``K_{m,n}``.

    ``K_{m,n} @ vec(X) = vec(X.T)`` for ``X`` of shape ``(m, n)``
    (row-major vec).  Used to express symmetry of second-order Volterra
    kernels: ``K_{n,n} (u ⊗ v) = v ⊗ u``.
    """
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    rows = np.arange(m * n)
    i, j = np.divmod(rows, n)
    cols = j * m + i
    data = np.ones(m * n)
    mat = sp.csr_matrix((data, (cols, rows)), shape=(m * n, m * n))
    if sparse:
        return mat
    return mat.toarray()


def symmetrize_pair(u, v):
    """Return the symmetrized Kronecker pair ``(u ⊗ v + v ⊗ u) / 2``."""
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    if u.shape != v.shape:
        raise ValidationError(
            f"u and v must have equal length, got {u.size} and {v.size}"
        )
    return 0.5 * (np.kron(u, v) + np.kron(v, u))
