"""Matrix-free linear operators for the lifted associated realizations.

The associated transform turns the second-order Volterra transfer function
of an ``n``-state QLDAE into a linear system with state matrix (paper
eq. 17)::

    Ã2 = [ G1   G2      ]        (size n + n²)
         [ 0    G1 ⊕ G1 ]

and the third-order one into block-triangular systems whose inner blocks
are Kronecker sums of ``Ã2`` and ``G1`` (sizes ``n·(n+n²)``).  These are
far too large to form; this module provides operator objects exposing
``matvec`` and shifted solves that exploit the block-triangular +
Kronecker-sum structure, so a Krylov iteration touches only
``O(n²)``/``O(n³)`` memory.
"""

import threading

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .._validation import as_square_matrix, as_sparse
from ..errors import SystemStructureError, ValidationError
from ._hotloops import scatter_add_rows
from .kronecker import kron_sum_power, kron_sum_power_matvec
from .sylvester import FactoredTensor, KronSumSolver, _g2_coo_parts

__all__ = [
    "DenseOperator",
    "KronSumOperator",
    "QuadraticLiftedOperator",
    "LiftedH3Vector",
    "FactoredH3Operator",
]


class DenseOperator:
    """Thin operator wrapper around a dense matrix (testing / small n).

    Provides the same ``matvec`` / ``solve_shifted`` interface as the
    structured operators, with one LU factorization cached per shift.
    """

    def __init__(self, a):
        self.a = as_square_matrix(a, "a")
        self.shape = self.a.shape
        self._lu_cache = {}
        self._lock = threading.Lock()

    @property
    def dim(self):
        return self.shape[0]

    def matvec(self, x):
        return self.a @ np.asarray(x)

    def _lu(self, shift):
        key = complex(shift)
        with self._lock:
            lu = self._lu_cache.get(key)
        if lu is None:
            shifted = self.a.astype(complex) + shift * np.eye(self.dim)
            lu = sla.lu_factor(shifted)
            with self._lock:
                lu = self._lu_cache.setdefault(key, lu)
        return lu

    def solve_shifted(self, shift, rhs):
        """Solve ``(A + shift I) x = rhs``."""
        return sla.lu_solve(self._lu(shift), np.asarray(rhs, complex))

    def dense(self):
        return self.a.copy()


class KronSumOperator:
    """Operator for ``k© A = A ⊕ ... ⊕ A`` (k terms) of size ``n**k``."""

    def __init__(self, a, k, solver=None):
        self.a = as_square_matrix(a, "a")
        self.k = int(k)
        if self.k < 1 or self.k > 3:
            raise ValidationError(f"k must be 1..3, got {k}")
        self.n = self.a.shape[0]
        self.shape = (self.n**self.k,) * 2
        self.solver = solver if solver is not None else KronSumSolver(self.a)

    @property
    def dim(self):
        return self.shape[0]

    def matvec(self, x):
        if self.k == 1:
            return self.a @ np.asarray(x)
        return kron_sum_power_matvec(self.a, self.k, x)

    def solve_shifted(self, shift, rhs):
        """Solve ``((k© A) + shift I) x = rhs`` via the Schur sweeps."""
        return self.solver.solve(rhs, k=self.k, shift=shift)

    def dense(self):
        if self.dim > 4096:
            raise ValidationError(
                f"refusing to densify a {self.dim}-dimensional Kronecker sum"
            )
        mat = kron_sum_power(self.a, self.k)
        return mat.toarray() if sp.issparse(mat) else np.asarray(mat)


class QuadraticLiftedOperator:
    """The paper's eq.-(17) state matrix ``Ã2`` as a structured operator.

    ``Ã2 = [[G1, G2], [0, G1 ⊕ G1]]`` with ``G1`` dense ``n × n`` and
    ``G2`` (sparse) ``n × n²``.  Shifted solves use block back-substitution
    with the Schur-based Kronecker-sum solver for the ``(2, 2)`` block —
    never forming the ``n² × n²`` matrix — at ``O(n³)`` per solve.
    """

    def __init__(self, g1, g2, kron_solver=None, schur=None):
        self.g1 = as_square_matrix(g1, "g1")
        self.n = self.g1.shape[0]
        self.g2 = as_sparse(g2, "g2")
        if self.g2.shape != (self.n, self.n**2):
            raise ValidationError(
                f"g2 must be (n, n^2) = ({self.n}, {self.n ** 2}), "
                f"got {self.g2.shape}"
            )
        self.kron_solver = (
            kron_solver if kron_solver is not None else KronSumSolver(self.g1)
        )
        # The (1,1)-block shifted solves reuse the same Schur factors.
        self.schur = schur if schur is not None else self.kron_solver.schur
        self.shape = (self.n + self.n**2,) * 2

    @property
    def dim(self):
        return self.shape[0]

    def split(self, x):
        """Split a lifted vector into its (n,) and (n²,) parts."""
        x = np.asarray(x)
        if x.shape[-1] != self.dim and x.size != self.dim:
            raise ValidationError(
                f"vector has length {x.size}, expected {self.dim}"
            )
        x = x.reshape(self.dim)
        return x[: self.n], x[self.n :]

    def matvec(self, x):
        x1, x2 = self.split(x)
        top = self.g1 @ x1 + self.g2 @ x2
        bottom = kron_sum_power_matvec(self.g1, 2, x2)
        return np.concatenate([top, bottom])

    def solve_shifted(self, shift, rhs):
        """Solve ``(Ã2 + shift I) x = rhs`` by block back-substitution."""
        r1, r2 = self.split(np.asarray(rhs, dtype=complex))
        x2 = self.kron_solver.solve(r2, k=2, shift=shift)
        x1 = self.schur.solve_shifted(shift, r1 - self.g2 @ x2)
        return np.concatenate([x1, x2])

    def dense(self):
        """Materialize ``Ã2`` (small systems / tests only)."""
        if self.dim > 4096:
            raise ValidationError(
                f"refusing to densify a {self.dim}-dimensional lifted matrix"
            )
        top = np.hstack([self.g1, self.g2.toarray()])
        ks = kron_sum_power(self.g1, 2)
        ks = ks.toarray() if sp.issparse(ks) else np.asarray(ks)
        bottom = np.hstack([np.zeros((self.n**2, self.n)), ks])
        return np.vstack([top, bottom])


# ---------------------------------------------------------------------------
# the lifted H3 operator (factored lifted vectors)
# ---------------------------------------------------------------------------

#: Element cap (complex entries) of each intermediate of
#: :meth:`FactoredH3Operator._fiber_contract`'s chunks.
_CONTRACT_BLOCK = 1 << 20


class LiftedH3Vector:
    """Compressed state vector of the ``A3(H3)`` realization.

    The lifted state splits into blocks ``[x_a | x_b | x_c | x_d]`` of
    sizes ``n``, ``n·N``, ``N·n`` and ``n³`` (``N = n + n²``).  At
    circuit scale even *one* dense lifted vector is out of reach
    (``n³ = 8.6·10⁹`` entries at n = 2048), so everything but the top
    block is held Tucker-factored:

    * ``a``  — the top (original state) block, dense ``(n,)``,
    * ``b1``/``b2`` — the ``x_b`` block split by ``Ã2``'s column blocks
      into an ``(n, n)`` 2-mode and an ``(n, n, n)`` 3-mode tensor,
    * ``d``  — the cubic ``(n, n, n)`` block.

    ``x_c`` is not stored: on every vector the H3 chains see it mirrors
    ``x_b`` (``X_c1 = X_b1ᵀ`` and ``X_c2[j, k, i] = X_b2[i, j, k]``).
    The ``B3`` columns do — their c-columns are their b-columns
    transposed, through the same three input permutations, with
    ``b̃2`` symmetric in its pair — and ``(G1 ⊕ Ã2, Ã2 ⊕ G1)`` map
    transposes to transposes.

    Blocks that are absent from the realization (no quadratic / no cubic
    term) are ``None``.
    """

    __slots__ = ("a", "b1", "b2", "d")

    def __init__(self, a, b1=None, b2=None, d=None):
        self.a = np.asarray(a)
        self.b1 = b1
        self.b2 = b2
        self.d = d

    @property
    def n(self):
        return self.a.shape[0]

    def to_vector(self):
        """Densify to the ``[x_a | x_b | x_c | x_d]`` block layout, the
        c-block derived from the b-block (small systems / tests only)."""
        n = self.n
        parts = [np.asarray(self.a, dtype=complex)]
        if self.b1 is not None:
            x1 = self.b1.to_vector().reshape(n, n)
            x2 = self.b2.to_vector().reshape(n, n * n)
            parts.append(np.hstack([x1, x2]).reshape(-1))
            parts.append(np.vstack([x1.T, x2.T]).reshape(-1))
        if self.d is not None:
            parts.append(self.d.to_vector())
        return np.concatenate(parts)


def _sorted_by_last(parts):
    """COO index arrays ``(rows, *modes, vals)`` reordered by their last
    mode index, plus ``(uniq, inv)`` of that index — the layout
    :meth:`FactoredH3Operator._fiber_contract` chunks along."""
    order = np.argsort(parts[-2], kind="stable")
    parts = tuple(p[order] for p in parts)
    uniq, inv = np.unique(parts[-2], return_inverse=True)
    return parts, (uniq, inv)


class FactoredH3Operator:
    """Shifted solves with the ``A3(H3)`` state matrix on factored
    lifted vectors — the one H3 algorithm for dense and sparse systems.

    The lifted blocks travel as :class:`LiftedH3Vector` Tucker factors
    and ``(A3 + sI) x = r`` is solved by block back-substitution; only
    the Kronecker-sum solver behind it depends on the system.  A sparse
    system passes the shared
    :class:`~repro.linalg.sylvester.LowRankKronSolver` on ``G1``'s
    sparse LU; a dense one the exact
    :class:`~repro.linalg.sylvester.KronSumSolver` on ``G1``'s Schur
    form, whose solutions stay on the Schur basis, so consecutive chain
    steps and the couplings below never transform ``n³`` tensors in and
    out.  The block reduction:

    * ``x_d`` and the ``x_b`` tail are ``(3© G1 + sI)`` solves whose
      right-hand sides are symmetric in modes 1 and 2,
    * the ``x_b`` head is a ``(2© G1 + sI)`` solve whose right-hand side
      picks up the sparse ``G2`` contracted against the tail's Tucker
      factors (never ``n²``-sided),
    * ``x_c`` mirrors ``x_b`` (see :class:`LiftedH3Vector`), so it is
      never solved,
    * the top row is one shifted ``G1`` solve after contracting
      ``G2``/``G3`` with the factored blocks; the c-block's share of the
      ``G2`` coupling is ``G2 vec(X_b1ᵀ)``.

    Parameters
    ----------
    g1 : (n, n) sparse/dense matrix
    g2 : (n, n²) sparse or None
    g3 : (n, n³) sparse or None
    kron_solver : LowRankKronSolver or KronSumSolver
        Kronecker-sum solver taking :class:`FactoredTensor` right-hand
        sides (typically the workspace's).
    solve_shifted : callable ``(shift, rhs) -> (G1 + shift·I)^{-1} rhs``
    """

    def __init__(self, g1, g2, g3, kron_solver, solve_shifted):
        self.g1 = g1
        self.n = g1.shape[0]
        self.has_quad = g2 is not None
        self.has_cubic = g3 is not None
        if not (self.has_quad or self.has_cubic):
            raise SystemStructureError(
                "system has neither quadratic nor cubic terms; H3 ≡ 0"
            )
        self.kron = kron_solver
        self._solve_g1 = solve_shifted
        n = self.n
        self._g2_parts = self._g2_keys = None
        if self.has_quad:
            self._g2_parts, self._g2_keys = _sorted_by_last(
                _g2_coo_parts(g2, n)
            )
        self._g3_parts = self._g3_keys = None
        if self.has_cubic:
            csr = sp.csr_matrix(g3)
            csr.sum_duplicates()
            coo = csr.tocoo()
            self._g3_parts, self._g3_keys = _sorted_by_last((
                coo.row,
                coo.col // (n * n),
                (coo.col // n) % n,
                coo.col % n,
                coo.data,
            ))
        self.n2 = n + n * n
        dim = n
        if self.has_quad:
            dim += 2 * n * self.n2
        if self.has_cubic:
            dim += n ** 3
        self.shape = (dim, dim)

    @property
    def dim(self):
        return self.shape[0]

    # -- sparse contractions --------------------------------------------------

    @staticmethod
    def _fiber_contract(core, f1, f2, idx1, keys):
        """``t[e, a] = Σ_bc core[a, b, c] f1[idx1[e], b] f2[k_e, c]``.

        The entries ``e`` come sorted by their last-mode index ``k_e``,
        whose distinct values and inverse are *keys*.  Per chunk of
        entries, one GEMM contracts the core's last mode against the
        distinct rows of *f2* the chunk names, and a gather hands each
        entry its slice for a batched contraction of the middle mode.
        Chunks keep both intermediates within :data:`_CONTRACT_BLOCK`
        elements.  The core is read mode-reversed, which copies nothing
        for the dense sweep's Fortran-ordered ``n³`` cores (a low-rank
        core is ``r³``).
        """
        uniq, inv = keys
        ra, rb, rc = core.shape
        mat = core.T.reshape(rc, rb * ra)
        t = np.empty(
            (inv.size, ra), dtype=np.result_type(core, f1, f2)
        )
        step = max(1, _CONTRACT_BLOCK // max(ra * rb, 1))
        for lo in range(0, inv.size, step):
            hi = min(lo + step, inv.size)
            first = inv[lo]
            z = (f2[uniq[first : inv[hi - 1] + 1]] @ mat).reshape(-1, rb, ra)
            z = z[inv[lo:hi] - first]
            t[lo:hi] = (f1[idx1[lo:hi], None, :] @ z)[:, 0, :]
        return t

    def _g2_vec(self, tensor):
        """``G2 @ vec(X)`` for a 2-mode Tucker ``X`` — dense ``(n,)``."""
        rows, ii, jj, vals = self._g2_parts
        out = np.zeros(self.n, dtype=complex)
        if min(tensor.core.shape, default=0) == 0 or rows.size == 0:
            return out
        p, q = tensor.factors
        t_vals = np.einsum(
            "ab,ea,eb->e", tensor.core, p[ii], q[jj], optimize=True
        )
        scatter_add_rows(out, rows, vals * t_vals)
        return out

    def _g3_vec(self, tensor):
        """``G3 @ vec(X)`` for a 3-mode Tucker ``X`` — dense ``(n,)``."""
        rows, ii, jj, kk, vals = self._g3_parts
        out = np.zeros(self.n, dtype=complex)
        if min(tensor.core.shape, default=0) == 0 or rows.size == 0:
            return out
        p, q, s = tensor.factors
        t = self._fiber_contract(tensor.core, q, s, jj, self._g3_keys)
        t_vals = np.einsum("ea,ea->e", t, p[ii])
        scatter_add_rows(out, rows, vals * t_vals)
        return out

    def solve_shifted(self, shift, vec):
        """Solve ``(A3 + shift·I) x = rhs`` by block back-substitution
        on a :class:`LiftedH3Vector`."""
        if not isinstance(vec, LiftedH3Vector):
            raise ValidationError(
                "the factored H3 operator solves LiftedH3Vector "
                "right-hand sides"
            )
        kron = self.kron
        out_b1 = out_b2 = out_d = None
        coupling = np.zeros(self.n, dtype=complex)
        if self.has_quad:
            out_b2 = kron.solve(vec.b2, k=3, shift=shift)
            rb1 = vec.b1.add(self._xb_g2_coupling(out_b2).scaled(-1.0))
            out_b1 = kron.solve(rb1, k=2, shift=shift)
            mirror = FactoredTensor(out_b1.core.T, out_b1.factors[::-1])
            coupling += self._g2_vec(out_b1) + self._g2_vec(mirror)
        if self.has_cubic:
            out_d = kron.solve(vec.d, k=3, shift=shift)
            coupling += self._g3_vec(out_d)
        x_a = self._solve_g1(shift, np.asarray(vec.a, dtype=complex)
                             - coupling)
        return LiftedH3Vector(x_a, b1=out_b1, b2=out_b2, d=out_d)

    def _xb_g2_coupling(self, x2):
        """``X2 G2ᵀ``: the quadratic coupling feeding the b-block head.

        ``[X2 G2ᵀ][i, r] = Σ_{jk} X2[i, jk] G2[r, jk]`` contracted
        against the Tucker factors of ``X2`` — returns a 2-mode Tucker
        with left factor ``P`` and a dense accumulated right factor.
        """
        rows, ii, jj, vals = self._g2_parts
        if min(x2.core.shape, default=0) == 0 or rows.size == 0:
            return FactoredTensor.zeros((self.n, self.n))
        p, q, s = x2.factors
        # t[e, a] = Σ_bc C[a,b,c] Q[j_e, b] S[k_e, c]  with (j, k) the
        # decomposed pair index of G2's flat n² column.
        t = self._fiber_contract(x2.core, q, s, ii, self._g2_keys)
        right = np.zeros((self.n, t.shape[1]), dtype=t.dtype)
        scatter_add_rows(right, rows, vals[:, None] * t)
        core = np.eye(t.shape[1], dtype=right.dtype)
        return FactoredTensor(core, [p, right])
