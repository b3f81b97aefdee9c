"""Sylvester-equation and Kronecker-sum solvers.

These routines implement the computational core of the paper's §2.3:
every Krylov step of the associated-transform method needs solves with
shifted repeated Kronecker sums ``(k© G1 − s I)`` whose dimension is
``n^k``.  Forming those matrices is hopeless for the paper's circuit
sizes; instead, one Schur decomposition of ``G1`` (n × n) turns each solve
into triangular sweeps of total cost ``O(n^{k+1})`` and memory ``O(n^k)``.

Identities used (row-major ``vec``; see :mod:`repro.linalg.kronecker`)::

    (A ⊕ A) vec(X)      = vec(A X + X Aᵀ)
    (A ⊕ A ⊕ A) vec(X)  = vec of summed mode products of the 3-tensor X

The module also solves the paper's eq.-(18) decoupling equation

    G1 Π + G2 = Π (G1 ⊕ G1)

which splits the associated second-order transfer function into two
independent LTI subsystems.

Every dense sweep here is a Bartels–Stewart back-substitution (Bartels &
Stewart, CACM 15(9), 1972) whose innermost step is one shifted
triangular solve per column, made by :func:`repro.linalg.schur.
_solve_upper` — one direct LAPACK ``ztrtrs`` call.  The 2-way sweeps
and the dense Π make exactly the calls ``scipy.linalg.solve_triangular``
would, so their results are bit-identical to it; at the paper's sizes
(n ≈ 70–100) its per-call checks cost five times the substitution.
"""

import logging
import threading

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import ztrsyl

from .._validation import as_matrix, as_square_matrix
from ..errors import NumericalError, ValidationError
from ._hotloops import scatter_add_rows
from .kronecker import mode_apply
from .schur import SchurForm, _diagonal, _solve_upper

__all__ = [
    "triangular_sylvester_solve",
    "KronSumSolver",
    "solve_pi_sylvester",
    "pi_sylvester_residual",
    "FactoredTensor",
    "FactoredPi",
    "LowRankKronSolver",
]

_log = logging.getLogger(__name__)

_SINGULAR_RTOL = 1e-13

#: Column-block width for the Bartels–Stewart sweeps.  Big enough that
#: the cross-block coupling GEMMs dominate the per-column GEMVs, small
#: enough that a block's RHS panel stays cache-resident.
_SYLVESTER_BLOCK = 64


def _check_diag_gap(values, scale):
    gap = np.abs(values).min()
    if gap <= _SINGULAR_RTOL * scale:
        raise NumericalError(
            "Sylvester/Kronecker-sum solve is numerically singular "
            f"(smallest shifted eigenvalue magnitude = {gap:.3e}); "
            "the spectrum pairing lambda_i + lambda_j + shift vanishes"
        )


def triangular_sylvester_solve(t, alpha, w):
    """Solve ``T Y + Y Tᵀ + alpha Y = W`` with upper-triangular ``T``.

    This is the Bartels–Stewart back-substitution specialized to the case
    where both coefficient matrices come from the same (complex) Schur
    factor.  Columns are swept from right to left; each step is one
    shifted triangular solve.

    Parameters
    ----------
    t : (n, n) complex ndarray, upper triangular.
    alpha : complex
        Scalar shift.
    w : (n, m) complex ndarray
        Right-hand side; ``m`` need not equal ``n`` — the general contract
        is ``T Y + Y S + alpha Y = W`` with ``S = Tᵀ[:m, :m]`` when
        ``m <= n``.  In this library it is always called with ``m == n``.

    Returns
    -------
    (n, m) complex ndarray.
    """
    t = np.asarray(t)
    w = np.asarray(w, dtype=complex)
    diag = np.diag(t)
    pair_sums = diag[:, None] + diag[None, : w.shape[1]] + alpha
    _check_diag_gap(pair_sums, max(np.abs(diag).max(), 1.0))
    return _sylvester_sweep(t, diag, alpha, w)


def _sylvester_sweep(t, diag, alpha, w, first=0):
    """The column sweep of :func:`triangular_sylvester_solve`, without
    its pairing check: for callers that checked every pairing up front
    (the 3-way sweep checks all of its slabs before solving the first).
    *diag* is ``diag(t)``; *w* is complex.  Only columns ``first`` and
    up are solved (the pair-symmetric 3-way sweep needs no others); the
    returned columns below *first* are left unset."""
    n, m = w.shape
    y = np.empty((n, m), dtype=complex)
    # One shared work matrix: only the diagonal changes per column, so
    # the O(n²) allocate-and-add of ``T + beta I`` is hoisted out of the
    # sweep (an O(n³)-per-solve saving across the m columns), and the
    # diagonal is rewritten through one strided view.
    shifted = t.astype(complex, copy=True)
    shifted_diag = _diagonal(shifted)
    # Blocked sweep: the coupling from all already-solved columns right
    # of a block lands as one GEMM per block (level-3 BLAS) instead of
    # one GEMV per column over an ever-longer tail — the couplings are
    # half the flops of the whole sweep at m == n.  Within a block the
    # remaining short-range couplings stay per-column.  Summation
    # grouping: column j subtracts the far coupling (one GEMM over the
    # solved blocks) first, then the in-block GEMV — fixed by the block
    # width, so results are reproducible bit for bit, and differ from an
    # unblocked per-column sweep at rounding level only.
    for hi in range(m, first, -_SYLVESTER_BLOCK):
        lo = max(first, hi - _SYLVESTER_BLOCK)
        rhs_block = np.ascontiguousarray(w[:, lo:hi], dtype=complex)
        if hi < m:
            # Couplings from Y Tᵀ: columns [lo, hi) receive
            # Y[:, k] * T[j, k] for every solved k >= hi.
            rhs_block -= y[:, hi:] @ t[lo:hi, hi:m].T
        for j in range(hi - 1, lo - 1, -1):
            rhs = rhs_block[:, j - lo]
            if j + 1 < hi:
                rhs = rhs - y[:, j + 1 : hi] @ t[j, j + 1 : hi]
            shifted_diag[:] = diag + (t[j, j] + alpha)
            y[:, j] = _solve_upper(shifted, rhs)
    return y


class KronSumSolver:
    """Shifted solves with repeated Kronecker sums of a fixed matrix.

    Given a square ``A`` (n × n), precomputes its complex Schur form once
    and then solves, matrix-free,

    * ``(A + shift I) x = rhs``                      (``k = 1``),
    * ``((A ⊕ A) + shift I) x = rhs``                (``k = 2``),
    * ``((A ⊕ A ⊕ A) + shift I) x = rhs``            (``k = 3``).

    This is exactly the paper's Schur trick:
    ``k© A = (Q k©)(k© T)(Q k©)ᴴ`` so each solve is a sequence of
    triangular substitutions.

    A flat right-hand side is transformed into the Schur basis and the
    solution back out.  A :class:`FactoredTensor` right-hand side — the
    lifted-H3 currency shared with :class:`LowRankKronSolver` — gets an
    exact solve that stays on the Schur basis (see
    :meth:`_solve_factored`).

    Results are complex; use :meth:`solve_real` when the right-hand side
    and operator are real and a real answer is expected.
    """

    def __init__(self, a, schur=None):
        a = as_square_matrix(a, "a")
        self.n = a.shape[0]
        if schur is not None and schur.n != self.n:
            raise ValidationError(
                "precomputed Schur form has mismatching dimension"
            )
        self.schur = schur if schur is not None else SchurForm(a)

    def solve(self, rhs, k=2, shift=0.0):
        """Solve ``((k© A) + shift I) x = rhs`` for ``k`` in {1, 2, 3}.

        ``rhs`` is a flat vector of length ``n**k`` in row-major tensor
        ordering; returns a complex vector of the same length.  A
        :class:`FactoredTensor` ``rhs`` (``k`` in {2, 3}) returns the
        solution as ``FactoredTensor(Y, [Q] * k)`` instead.
        """
        if isinstance(rhs, FactoredTensor):
            return self._solve_factored(rhs, k, shift)
        n = self.n
        rhs = np.asarray(rhs, dtype=complex).reshape(-1)
        if rhs.size != n**k:
            raise ValidationError(
                f"rhs has length {rhs.size}, expected n**k = {n**k}"
            )
        if k == 1:
            return self.schur.solve_shifted(shift, rhs)
        if k == 2:
            # Into the Schur basis as Y = Qᴴ X conj(Q), back as Q Y Qᵀ.
            q = self.schur.q
            w = q.conj().T @ rhs.reshape(n, n) @ q.conj()
            y = triangular_sylvester_solve(self.schur.t, shift, w)
            return (q @ y @ q.T).reshape(-1)
        if k == 3:
            return self._solve_three_way(rhs, shift)
        raise ValidationError(f"k must be 1, 2 or 3, got {k}")

    def solve_real(self, rhs, k=2, shift=0.0, rtol=1e-8):
        """Like :meth:`solve` but assert and return a real result."""
        x = self.solve(rhs, k=k, shift=shift)
        scale = max(np.abs(x).max(), 1.0)
        if np.abs(x.imag).max() > rtol * scale:
            raise NumericalError(
                "expected a real solution but imaginary residue "
                f"{np.abs(x.imag).max():.3e} exceeds tolerance"
            )
        return x.real.copy()

    def _solve_factored(self, tensor, k, shift):
        """Exact solve for a Tucker-factored right-hand side.

        Only the factors that are not the Schur ``Q`` itself are carried
        into the Schur basis, and the solution is returned on it, as
        ``FactoredTensor(Y, [Q] * k)``: a chain fed its own previous
        output transforms nothing, and the H3 seeds' factors have rank
        ≤ 2.  ``k = 2`` is one triangular Sylvester solve.  ``k = 3``
        takes the pair-symmetric slab sweep (see :meth:`_three_way_sweep`):
        the right-hand side must be symmetric in modes 1 and 2, as the
        lifted-H3 b-block tails and cubic blocks are, and ``Y`` comes
        back exactly symmetric, in the sweep's memory order (Fortran
        order: mode 0 fastest).
        """
        n = self.n
        if k not in (2, 3):
            raise ValidationError(
                f"factored right-hand sides need k = 2 or 3, got {k}"
            )
        if tensor.order != k or tensor.shape != (n,) * k:
            raise ValidationError(
                f"rhs has shape {tensor.shape}, expected {(n,) * k}"
            )
        q = self.schur.q
        if min(tensor.core.shape, default=0) == 0:
            return FactoredTensor.zeros((n,) * k)
        qh = q.conj().T
        # Carry the mode-reversed core into the Schur basis, its last
        # mode last: a transformed seed then lands contiguous in the
        # 3-way sweep's layout (w[r, j, i] = W[i, j, r]), which the 2-way
        # solve, equal for a matrix and its transpose, takes as well.
        # Either returns the reversed solution.
        w = tensor.core.T
        for axis, f in zip(range(k - 1, -1, -1), tensor.factors):
            if f is not q:
                w = mode_apply(w, qh @ f, axis)
        if k == 2:
            y = triangular_sylvester_solve(self.schur.t, shift, w)
        else:
            y = self._three_way_sweep(
                w.astype(complex, copy=False), shift, pair_symmetric=True
            )
        return FactoredTensor(y.T, [q] * k)

    def _solve_three_way(self, rhs, shift):
        """``(A ⊕ A ⊕ A + shift I) x = rhs`` for a flat ``rhs``.

        The slab sweep of :meth:`_three_way_sweep` between the transforms
        into and out of the Schur basis.  The mode-2 transforms (each
        fused with the slab-leading layout change) are one GEMM each;
        modes 0 and 1 are transformed slab by slab, in place.  At most
        three n³ complex arrays are alive at once: the right-hand side,
        ``Y``, and either ``W`` or the result.
        """
        n = self.n
        q = self.schur.q
        qc = q.conj()
        qh = qc.T
        # w[r, i, j] = Σ_p Qᴴ[r, p] rhs[i, j, p]: mode 2 into the Schur
        # basis, landing slab-leading.
        w = (qh @ rhs.reshape(n * n, n).T).reshape(n, n, n)
        for r in range(n):
            w[r] = qh @ w[r] @ qc
        y = self._three_way_sweep(w, shift)
        del w
        for r in range(n):
            y[r] = q @ y[r] @ q.T
        # x[i, j, r] = Σ_p Y[p, i, j] Q[r, p]: mode 2 back, row-major.
        return (y.reshape(n, n * n).T @ q.T).reshape(-1)

    def _three_way_sweep(self, w, shift, pair_symmetric=False):
        """Triangular sweep for ``Σ_modes T Y + shift Y = W``.

        In the Schur basis the equation for the 3-tensor ``Y`` is

            mode0(T) Y + mode1(T) Y + mode2(T) Y + shift Y = W.

        *w* and the returned ``Y`` are held slab-leading, ``w[r] =
        W[:, :, r]``.  Sweeping the last index ``r`` from high to low
        reduces each slab to a two-way triangular Sylvester solve with
        an extra diagonal shift ``T[r, r]``, after the coupling
        ``Σ_{p>r} T[r, p] Y[p]`` along mode 2 — one GEMV over the
        contiguous solved slabs ``Y[r+1:]``.  The singular-pairing check
        takes its minimum slab by slab too, and refuses before any slab
        is solved; it covers every slab's pairings, so the slab sweeps
        do not check again.

        With *pair_symmetric*, ``W`` must be symmetric in modes 1 and 2
        (to 1e-12 relative, else :class:`ValidationError`); ``3© T``
        preserves that, so slab ``r`` solves only its columns ``j ≥ r``
        — ``n(n+1)/2`` of the ``n²`` triangular solves — from the exactly
        symmetrized right-hand side, and mirrors them into column ``r``
        of the later slabs.  Its slabs are held transposed, ``w[r] =
        W[:, :, r]ᵀ``, so a solved column is a contiguous row and the
        mode-2 coupling of columns ``j > r`` is one GEMV over the rows
        ``j > r`` of the solved slabs.  The diagonal column's mode-2
        coupling equals its in-slab mode-1 one, so it takes that twice.
        """
        n = self.n
        t = self.schur.t
        diag = np.diag(t)
        pair = diag[:, None] + diag[None, :]
        _check_diag_gap(
            np.array([np.abs((pair + d) + shift).min() for d in diag]),
            max(np.abs(diag).max(), 1.0),
        )
        if pair_symmetric:
            _check_pair_symmetric(w)
            shifted = t.astype(complex, copy=True)
            shifted_diag = _diagonal(shifted)
        y = np.empty((n, n, n), dtype=complex)
        for r in range(n - 1, -1, -1):
            alpha = shift + t[r, r]
            if not pair_symmetric:
                rhs = w[r]
                if r + 1 < n:
                    rhs = rhs - (
                        t[r, r + 1 :] @ y[r + 1 :].reshape(-1, n * n)
                    ).reshape(n, n)
                y[r] = _sylvester_sweep(t, diag, alpha, rhs)
                continue
            m = n - r - 1
            rhs = np.empty((n, n), dtype=complex)
            rhs[:, r:] = (w[r, r:] + w[r:, r]).T
            rhs[:, r:] *= 0.5
            if m:
                # Σ_{p>r} T[r, p] Y[:, j, p] for j > r: rows j of slabs p.
                rhs[:, r + 1 :] -= (
                    t[r, r + 1 :] @ y[r + 1 :].reshape(m, n * n)[:, -m * n :]
                ).reshape(m, n).T
            ys = _sylvester_sweep(t, diag, alpha, rhs, r + 1)
            col = rhs[:, r]
            if m:
                col = col - 2.0 * (ys[:, r + 1 :] @ t[r, r + 1 :])
            shifted_diag[:] = diag + (t[r, r] + alpha)
            ys[:, r] = _solve_upper(shifted, col)
            y[r, r:] = ys[:, r:].T
            y[r + 1 :, r] = ys[:, r + 1 :].T
        return y


def _check_pair_symmetric(w):
    """Refuse transposed slabs ``w[r] = W[:, :, r]ᵀ`` of a 3-tensor
    that is not symmetric in its modes 1 and 2 (``w[r, j] = w[j, r]``)
    to 1e-12 relative."""
    asym = total = 0.0
    for r in range(w.shape[0]):
        total += float(np.real(np.vdot(w[r], w[r])))
        d = w[r, r + 1 :] - w[r + 1 :, r]
        asym += 2.0 * float(np.real(np.vdot(d, d)))
    if asym > (1e-12 ** 2) * total:
        raise ValidationError(
            "the factored 3-way solve needs a right-hand side symmetric in "
            f"modes 1 and 2; relative asymmetry {np.sqrt(asym / total):.3e}"
        )


def solve_pi_sylvester(g1, g2, solver=None):
    """Solve the paper's eq.-(18) Sylvester equation for ``Π``.

    Finds the ``n × n²`` matrix ``Π`` with::

        G1 Π + G2 = Π (G1 ⊕ G1)

    which exists whenever no eigenvalue of ``G1`` equals the sum of two
    eigenvalues of ``G1`` (always true for stable ``G1``).  ``Π`` realizes
    the similarity transform that block-diagonalizes the lifted
    second-order state matrix (paper eq. 17 → 18).

    Parameters
    ----------
    g1 : (n, n) array_like
    g2 : (n, n²) array_like or sparse
    solver : KronSumSolver, optional
        Reused Schur factorization of ``g1``; computed when omitted.

    Returns
    -------
    (n, n²) float ndarray.

    Notes
    -----
    Writing the unknown as the 3-tensor ``P[i, j, k]`` the equation reads
    ``mode0(G1) P − mode1(G1ᵀ) P − mode2(G1ᵀ) P = −G2`` and is solved by
    triangular sweeps over the trailing two indices in the Schur basis;
    cost ``O(n⁴)``, memory ``O(n³)`` complex.
    """
    g1 = as_square_matrix(g1, "g1")
    n = g1.shape[0]
    g2 = as_matrix(g2, "g2")
    if g2.shape != (n, n * n):
        raise ValidationError(
            f"g2 must have shape (n, n^2) = ({n}, {n * n}), got {g2.shape}"
        )
    if solver is None:
        solver = KronSumSolver(g1)
    pi = _solve_pi_schur(solver.schur, g2)
    scale = max(np.abs(pi).max(), 1.0)
    if np.abs(pi.imag).max() > 1e-8 * scale:
        raise NumericalError(
            "Pi came out complex beyond rounding; inputs may be complex"
        )
    return np.ascontiguousarray(pi.real)


def _solve_pi_schur(schur, g2):
    """Schur-basis triangular sweep for the Π equation (complex output).

    The computational core of :func:`solve_pi_sylvester`, shared with the
    low-rank Galerkin solver (whose projected problem may be complex when
    the shared Krylov basis is).
    """
    n = schur.n
    t = schur.t
    q = schur.q
    qh = q.conj().T
    diag = np.diag(t)
    # Pairings λ_i − λ_j − λ_k, minimized slab by slab (no n³ array).
    pair = diag[:, None] - diag[None, :]
    _check_diag_gap(
        np.array([np.abs(pair - d).min() for d in diag]),
        max(np.abs(diag).max(), 1.0),
    )

    # Schur-basis right-hand side: C = mode0(Qᴴ) mode1(Qᵀ) mode2(Qᵀ) (−G2).
    c = np.asarray(-g2).reshape(n, n, n).astype(complex)
    c = mode_apply(c, qh, 0)
    c = mode_apply(c, q.T, 1)
    c = mode_apply(c, q.T, 2)

    # Solve mode0(T) Y − mode1(Tᵀ) Y − mode2(Tᵀ) Y = C by ascending sweep
    # over (j, k): couplings come from p < j (mode 1) and p < k (mode 2).
    y = np.empty((n, n, n), dtype=complex)
    shifted = t.astype(complex, copy=True)
    shifted_diag = _diagonal(shifted)
    for k in range(n):
        for j in range(n):
            rhs = c[:, j, k].copy()
            if j > 0:
                rhs += y[:, :j, k] @ t[:j, j]
            if k > 0:
                rhs += y[:, j, :k] @ t[:k, k]
            shifted_diag[:] = diag - (t[j, j] + t[k, k])
            y[:, j, k] = _solve_upper(shifted, rhs)
    del c

    # Back-transform: Π = mode0(Q) mode1(conj(Q)) mode2(conj(Q)) Y.
    y = mode_apply(y, q, 0)
    y = mode_apply(y, q.conj(), 1)
    y = mode_apply(y, q.conj(), 2)
    return y.reshape(n, n * n)


def pi_sylvester_residual(g1, g2, pi):
    """Residual ``‖G1 Π + G2 − Π (G1 ⊕ G1)‖_F`` (testing helper).

    Accepts a dense ``(n, n²)`` Π (evaluated matrix-free via mode
    products, ``O(n³)`` memory) or a :class:`FactoredPi` (evaluated
    through Gram matrices at ``O(n·r² + nnz·r³)`` — usable at circuit
    sizes where even one dense ``n × n²`` matrix is out of reach).
    ``g1`` may be sparse on the factored path.
    """
    if isinstance(pi, FactoredPi):
        return _factored_pi_residual(g1, g2, pi)
    g1 = as_square_matrix(g1, "g1")
    n = g1.shape[0]
    g2 = as_matrix(g2, "g2")
    p3 = np.asarray(pi).reshape(n, n, n)
    term = mode_apply(p3, g1, 0)
    term = term - mode_apply(p3, g1.T, 1) - mode_apply(p3, g1.T, 2)
    resid = term.reshape(n, n * n) + g2
    return float(np.linalg.norm(resid))


def _g2_coo_parts(g2, n):
    """COO split of a (possibly sparse) ``(n, n²)`` G2 into
    ``(rows, i, j, vals)`` index arrays with duplicates summed."""
    csr = sp.csr_matrix(g2)
    if csr.shape != (n, n * n):
        raise ValidationError(
            f"g2 must have shape (n, n^2) = ({n}, {n * n}), got {csr.shape}"
        )
    csr.sum_duplicates()
    coo = csr.tocoo()
    return coo.row, coo.col // n, coo.col % n, coo.data


def _g2_fiber_blocks(rows, ii, jj, vals, n):
    """Spanning blocks of G2's lifted-side (mode-1/2) tensor fibers.

    Yields ``(fiber_count, block)`` pairs gathered directly from the COO
    data.  Both the Π seed construction and the factored residual use
    *this one* extraction — they must agree exactly for the residual
    identity (fibers seeded into ``U`` ⇒ projection defect ~0) to hold.
    """
    for key, ridx in ((rows * n + jj, ii), (rows * n + ii, jj)):
        uniq, inv = np.unique(key, return_inverse=True)
        block = np.zeros((n, uniq.size))
        np.add.at(block, (ridx, inv), vals)
        yield uniq.size, block


def _factored_pi_residual(g1, g2, pi):
    """``‖G1 Π + G2 − Π (G1 ⊕ G1)‖_F`` for a factored (real) Π.

    With ``Π = L (U⊗U)ᵀ`` (``U`` orthonormal, ``L = V Y`` formed here
    as an independent reference) the residual splits, via
    ``G1ᵀU = U Ht + Su`` with ``Su ⊥ U``, into mutually orthogonal
    pieces that are each evaluated *without* large-term cancellation
    (a naive ``‖·‖²`` expansion would floor the result at √eps·‖G2‖):

    * the in-span coefficient ``G1 L + Ĝ2 − L (Htᵀ⊕Htᵀ)``,
    * the out-of-span defect through the ``SuᵀSu`` Gram,
    * ``G2``'s own projection defect, bounded by its explicit lifted-side
      fiber defects (exactly zero when the fibers span ``U``, as the
      Galerkin solver guarantees) and folded in with a triangle
      inequality — a *tight upper bound*, exact when the defect is zero.

    No ``n²``-sided intermediate is formed; ``g1`` may be sparse.
    """
    n = g1.shape[0]
    if g1.shape[0] != g1.shape[1]:
        raise ValidationError(f"g1 must be square, got shape {g1.shape}")
    u = pi.u
    if u.shape[0] != n:
        raise ValidationError(
            f"factored Pi basis has {u.shape[0]} rows, expected {n}"
        )
    rows, ii, jj, vals = _g2_coo_parts(g2, n)
    g2_sq = float(np.vdot(vals, vals).real)
    r = pi.rank
    if r == 0:
        return float(np.sqrt(g2_sq))
    left = pi.v @ pi.y
    l3 = left.reshape(n, r, r)
    # Ĝ2 = G2 (U ⊗ U) through the COO contraction.
    contrib = np.einsum("e,eb,ec->ebc", vals, u[ii], u[jj], optimize=True)
    g2r = np.zeros((n, r, r), dtype=contrib.dtype)
    scatter_add_rows(g2r, rows, contrib)
    bu = g1.T @ u if sp.issparse(g1) else np.asarray(g1).T @ u
    ht = u.conj().T @ bu
    su = bu - u @ ht
    # In-span coefficient: G1 L + Ĝ2 − L (Htᵀ ⊗ I) − L (I ⊗ Htᵀ).
    m_in = (g1 @ left).reshape(n, r, r) + g2r
    m_in = m_in - np.einsum("pbe,db->pde", l3, ht, optimize=True)
    m_in = m_in - np.einsum("pdc,ec->pde", l3, ht, optimize=True)
    in_span = float(np.real(np.vdot(m_in, m_in)))
    # Out-of-span defect through the Su Gram.
    gs = su.conj().T @ su
    out_sq = max(float(np.real(np.einsum(
        "pbc,bd,pdc->", l3.conj(), gs, l3, optimize=True))), 0.0)
    out_sq += max(float(np.real(np.einsum(
        "pbc,ce,pbe->", l3.conj(), gs, l3, optimize=True))), 0.0)
    # G2's own projection defect via explicit lifted-side fiber blocks.
    delta_sq = 0.0
    for _, block in _g2_fiber_blocks(rows, ii, jj, vals, n):
        defect = block - u @ (u.conj().T @ block)
        delta_sq += float(np.real(np.vdot(defect, defect)))
    # The ΔG2 piece is not orthogonal to the Su pieces; computing their
    # cross term directly would reintroduce an O(√eps·‖G2‖) floor (a
    # large in-span G2 contracted against tiny out-of-span factors), so
    # the two are combined by triangle inequality instead — exact when
    # the fiber defect is zero.
    out = (np.sqrt(out_sq) + np.sqrt(delta_sq)) ** 2
    return float(np.sqrt(max(in_span + out, 0.0)))


# ---------------------------------------------------------------------------
# low-rank (Tucker-factored) Kronecker-sum machinery
# ---------------------------------------------------------------------------


class FactoredTensor:
    """Tucker-factored vector in the lifted space ``⊗ᵏ ℝⁿ``.

    Represents ``x = vec(C ×₀ U₀ ×₁ U₁ ... )`` through a small ``k``-way
    core ``C`` of shape ``(r₀, ..., r_{k−1})`` and one ``(n_t, r_t)``
    factor per tensor mode.  This is the compressed currency of the
    sparse lifted-H2/H3 machinery: an ``n³``-dimensional chain vector
    whose multilinear ranks stay ``O(10)`` costs ``O(n·r + r³)`` memory
    instead of ``n³``.
    """

    __slots__ = ("core", "factors")

    def __init__(self, core, factors):
        core = np.asarray(core)
        factors = [np.asarray(f) for f in factors]
        if core.ndim != len(factors):
            raise ValidationError(
                f"core has {core.ndim} modes but {len(factors)} factors "
                "were given"
            )
        for axis, f in enumerate(factors):
            if f.ndim != 2:
                raise ValidationError(
                    f"factor {axis} must be 2-D, got ndim={f.ndim}"
                )
            if f.shape[1] != core.shape[axis]:
                raise ValidationError(
                    f"factor {axis} has {f.shape[1]} columns, core mode "
                    f"has size {core.shape[axis]}"
                )
        self.core = core
        self.factors = factors

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, dims):
        """The zero tensor over mode sizes *dims* (rank-0 factors)."""
        dims = tuple(int(d) for d in dims)
        core = np.zeros((0,) * len(dims))
        return cls(core, [np.zeros((d, 0)) for d in dims])

    @classmethod
    def rank_one(cls, vectors, weight=1.0):
        """``weight · v₀ ⊗ v₁ ⊗ ...`` from a sequence of vectors."""
        factors = [np.asarray(v).reshape(-1, 1) for v in vectors]
        core = np.full((1,) * len(factors), weight)
        return cls(core, factors)

    # -- shape ---------------------------------------------------------------

    @property
    def order(self):
        return self.core.ndim

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ranks(self):
        return self.core.shape

    @property
    def dim(self):
        return int(np.prod(self.shape))

    # -- algebra -------------------------------------------------------------

    def to_vector(self):
        """Densify to a flat row-major vector (small systems / tests)."""
        if min(self.core.shape, default=0) == 0:
            return np.zeros(self.dim)
        t = self.core
        for axis, f in enumerate(self.factors):
            t = mode_apply(t, f, axis)
        return t.reshape(-1)

    def scaled(self, alpha):
        return FactoredTensor(self.core * alpha, self.factors)

    def add(self, other):
        """Structural sum: concatenated factors, block-embedded cores."""
        if not isinstance(other, FactoredTensor):
            raise ValidationError("can only add another FactoredTensor")
        if self.order != other.order or self.shape != other.shape:
            raise ValidationError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )
        ranks = tuple(
            a + b for a, b in zip(self.core.shape, other.core.shape)
        )
        dtype = np.result_type(
            self.core, other.core, *self.factors, *other.factors
        )
        core = np.zeros(ranks, dtype=dtype)
        core[tuple(slice(0, s) for s in self.core.shape)] = self.core
        core[tuple(slice(s, None) for s in self.core.shape)] = other.core
        factors = [
            np.hstack([f.astype(dtype, copy=False),
                       g.astype(dtype, copy=False)])
            for f, g in zip(self.factors, other.factors)
        ]
        return FactoredTensor(core, factors)

    def norm(self):
        """Frobenius norm ``‖x‖₂`` via per-mode Gram matrices."""
        if min(self.core.shape, default=0) == 0:
            return 0.0
        t = self.core
        for axis, f in enumerate(self.factors):
            t = mode_apply(t, f.conj().T @ f, axis)
        return float(np.sqrt(max(np.real(np.vdot(self.core, t)), 0.0)))

    def compress(self, tol=1e-12, factors_orthonormal=False):
        """Rank-truncated copy (QR on the factors + sequential HOSVD).

        *tol* is relative to the tensor norm; pass
        ``factors_orthonormal=True`` to skip the QR step when the factors
        are known orthonormal (e.g. a shared Krylov basis).
        """
        core = self.core
        if min(core.shape, default=0) == 0:
            return FactoredTensor.zeros(self.shape)
        qs = []
        if factors_orthonormal:
            qs = list(self.factors)
        else:
            for axis, f in enumerate(self.factors):
                q, r = np.linalg.qr(f)
                qs.append(q)
                core = mode_apply(core, r, axis)
        total = float(np.linalg.norm(core))
        if total == 0.0:
            return FactoredTensor.zeros(self.shape)
        cutoff = (tol * total) ** 2
        new_factors = []
        for axis in range(core.ndim):
            mat = np.moveaxis(core, axis, 0).reshape(core.shape[axis], -1)
            gram = mat @ mat.conj().T
            w, v = np.linalg.eigh(gram)
            keep = w > cutoff
            if not np.any(keep):
                keep[-1] = True
            v = v[:, keep]
            core = mode_apply(core, v.conj().T, axis)
            new_factors.append(qs[axis] @ v)
        return FactoredTensor(core, new_factors)


class FactoredPi:
    """Factored solution ``Π ≈ V · Y · (U ⊗ U)ᵀ`` of the eq.-(18)
    Sylvester equation.

    ``U`` is an orthonormal ``(n, r)`` basis of the *right* (lifted)
    space, ``V`` an orthonormal ``(n, k)`` basis of the *left* (state)
    space and ``Y`` the ``(k, r²)`` core: the low-rank factored form of a
    Sylvester solution (Simoncini, "Computational methods for linear
    matrix equations", SIAM Review 58(3), 2016), with ``W = U ⊗ U`` held
    implicitly in Kronecker form.  The ``n``-row factors have ``k + r``
    columns between them; neither the ``n × n²`` matrix nor the
    ``(n, r²)`` product ``V Y`` is materialized (see
    :meth:`LowRankKronSolver.solve_pi`, which builds all three factors;
    ``k = 15``, ``r = 18`` on the healthy ladder at n = 1024 and
    n = 8192).

    Acts on dense vectors/matrices over the ``n²`` lifted space and on
    :class:`FactoredTensor` operands (the decoupled-H2 chain vectors).
    """

    __slots__ = ("v", "y", "u", "residual", "rhs_norm")

    def __init__(self, v, y, u, residual=None, rhs_norm=None):
        self.v = np.asarray(v)
        self.y = np.asarray(y)
        self.u = np.asarray(u)
        n, r = self.u.shape
        k = self.v.shape[1]
        if self.v.shape[0] != n or self.y.shape != (k, r * r):
            raise ValidationError(
                f"factors must be V (n, k), Y (k, r^2), U (n, r); got "
                f"V {self.v.shape}, Y {self.y.shape}, U {self.u.shape}"
            )
        self.residual = residual
        self.rhs_norm = rhs_norm

    def state_dict(self):
        """Payload-tree snapshot (checkpoint/resume round trip)."""
        return {
            "v": self.v,
            "y": self.y,
            "u": self.u,
            "residual": self.residual,
            "rhs_norm": self.rhs_norm,
        }

    @classmethod
    def from_state(cls, state):
        """Rebuild from a :meth:`state_dict` payload tree."""
        return cls(
            state["v"], state["y"], state["u"],
            residual=state.get("residual"),
            rhs_norm=state.get("rhs_norm"),
        )

    @property
    def n(self):
        return self.u.shape[0]

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def shape(self):
        return (self.n, self.n * self.n)

    def apply(self, rhs):
        """``Π @ rhs`` for a dense ``(n²,)`` vector or ``(n², m)`` matrix."""
        rhs = np.asarray(rhs)
        squeeze = rhs.ndim == 1
        mat = rhs.reshape(self.n, self.n, -1)
        if self.rank == 0:
            out = np.zeros(
                (self.n, mat.shape[2]), dtype=np.result_type(rhs, self.y)
            )
            return out[:, 0] if squeeze else out
        t = np.tensordot(self.u.T, mat, axes=(1, 0))       # (r, n, m)
        t = np.tensordot(t, self.u, axes=(1, 0))           # (r, m, r)
        w = t.transpose(0, 2, 1).reshape(self.rank ** 2, -1)
        out = self.v @ (self.y @ w)
        return out[:, 0] if squeeze else out

    def apply_factored(self, tensor):
        """``Π @ vec(X)`` for a 2-mode :class:`FactoredTensor` X."""
        if tensor.order != 2:
            raise ValidationError("apply_factored expects a 2-mode tensor")
        if min(tensor.core.shape, default=0) == 0 or self.rank == 0:
            return np.zeros(self.n, dtype=np.result_type(
                self.y, tensor.core))
        p = self.u.T @ tensor.factors[0]
        q = self.u.T @ tensor.factors[1]
        w = p @ tensor.core @ q.T
        return self.v @ (self.y @ w.reshape(-1))

    def __matmul__(self, other):
        if isinstance(other, FactoredTensor):
            return self.apply_factored(other)
        return self.apply(other)

    def to_dense(self):
        """Materialize Π as ``(n, n²)`` (small systems / tests only)."""
        if self.n ** 3 > 64_000_000:
            raise ValidationError(
                f"refusing to densify a factored Pi with n = {self.n}"
            )
        r = self.rank
        if r == 0:
            return np.zeros((self.n, self.n * self.n))
        t = (self.v @ self.y).reshape(self.n, r, r)
        t = mode_apply(t, self.u, 1)
        t = mode_apply(t, self.u, 2)
        return t.reshape(self.n, self.n * self.n)

# ---------------------------------------------------------------------------
# low-rank Galerkin solver (sparse circuit scale)
# ---------------------------------------------------------------------------


#: Relative column-norm threshold below which a candidate basis direction
#: is considered already spanned and dropped.
_BASIS_DROP_TOL = 1e-10

#: Smallest kept pivot, relative to the block's largest column norm,
#: below which two classical Gram–Schmidt passes no longer leave the new
#: columns orthogonal to ``U`` (Giraud, Langou, Rozložník & van den
#: Eshof, Numer. Math. 101(1), 2005); such a block gets two more passes
#: and a QR.
_REORTH_TOL = 1e-4

#: Hard cap on Galerkin refinement rounds (each round extends the basis).
_MAX_GALERKIN_ROUNDS = 80

#: Basis dimension above which the projected 3-way solve switches from
#: the Schur sweep (O(r²) Python-level triangular solves) to the
#: eigenvector fast path (pure GEMMs); the exact residual test guards
#: against eigenbasis ill-conditioning either way.
_EIG_THRESHOLD = 48

#: Eigenbasis condition number beyond which the projected eig fast path
#: is not trusted and the Schur sweep is used instead.
_EIG_COND_LIMIT = 1e10

#: Fraction of the Π residual target below which the left defect of the
#: projected Π solve must fall before the left basis stops growing, so
#: the left projection never decides whether Π converged.
_PI_LEFT_FRACTION = 0.1

#: Ritz spread (see :func:`ritz_spread`) at which the Π equation stops
#: being separated.  With every ``Re λ`` in ``[−M, −m]`` the pair sums
#: ``λ_b + λ_c`` lie in ``[−2M, −2m]``, disjoint from the spectrum of
#: ``G1`` exactly when ``M < 2m``; past that, ``λ_a − λ_b − λ_c`` crosses
#: zero and Π has no low-rank approximation (Simoncini, SIAM Review
#: 58(3), 2016), so the right-Galerkin iteration climbs towards r = n.
PI_SPREAD_LIMIT = 2.0

#: Largest ``n`` at which :meth:`LowRankKronSolver.solve_pi` hands a Π
#: that is not low-rank over to the dense Schur solve.  On the default
#: ladder (spread ~40, 2-core x86-64 VM) the dense route with its
#: residual check took 0.29 / 0.48 / 3.0 / 11.7 / 44 s at
#: n = 40 / 64 / 128 / 192 / 256, peaking at 1.4 GB RSS at 256 (its
#: complex n³ workspaces grow as n³, its time as n⁴); the low-rank
#: route took 3.3–4.5 s at n = 40, 21.5 s at n = 64 and did not finish
#: in 10 min at n = 256.  Above it the low-rank iteration runs.
PI_DENSE_LIMIT = 256


def ritz_spread(theta):
    """Spread and stability of Ritz values *theta* of ``G1``.

    Returns ``(rho, stable)`` with ``rho = max|Re θ| / min|Re θ|``
    (``inf`` when some ``Re θ`` is zero) and *stable* true when every
    ``Re θ < 0``.  For a symmetric ``G1`` the Ritz values of any
    projection ``UᵀG1U`` stay inside ``[λmin, λmax]``, so their ``rho``
    never exceeds the true spread.
    """
    theta = np.asarray(theta)
    re = np.abs(theta.real)
    low = float(re.min())
    rho = float(re.max()) / low if low > 0.0 else float("inf")
    return rho, bool(np.all(theta.real < 0.0))


class PiNotLowRank(NumericalError):
    """The low-rank Π iteration handed over to the dense Schur solve
    (see :meth:`LowRankKronSolver.solve_pi`; the evidence is in the
    solver's :attr:`~LowRankKronSolver.pi_plan`)."""


class _KrylovBasis:
    """Growing orthonormal basis of extended-Krylov directions of ``G1``.

    Tracks ``U`` and ``A U`` incrementally so the projected matrix
    ``H = Uᴴ A U`` and the *explicit* residual factor ``Ru = A U − U H``
    (whose Gram matrix gives exact residual norms without cancellation)
    are O(n·r²) updates.  A basis built with ``transpose=True`` (the Π
    solve's right basis) also tracks ``Aᵀ U`` for the transposed factor
    ``Su = (I − UUᴴ) Aᵀ U`` of :meth:`gram_transpose`.
    Re-orthogonalizations (see :data:`_REORTH_TOL`) are counted in
    *stats*.
    """

    def __init__(self, g1, max_dim, stats, transpose=False):
        self.g1 = g1
        self.n = g1.shape[0]
        self.max_dim = int(max_dim)
        self.stats = stats
        self.u = np.empty((self.n, 0))
        self.au = np.empty((self.n, 0))
        self.atu = np.empty((self.n, 0)) if transpose else None
        self.last = 0  # first column of the newest block
        self._h = None

    @property
    def dim(self):
        return self.u.shape[1]

    def _promote_complex(self):
        if not np.iscomplexobj(self.u):
            self.u = self.u.astype(complex)
            self.au = self.au.astype(complex)
            if self.atu is not None:
                self.atu = self.atu.astype(complex)
            self._h = None

    def absorb(self, block):
        """Orthonormalize *block* against ``U`` and append what is new.

        Returns True when the basis grew.
        """
        block = np.asarray(block)
        if block.ndim == 1:
            block = block[:, None]
        if block.shape[1] == 0:
            return False
        if np.iscomplexobj(block):
            if not np.any(block.imag):
                block = np.ascontiguousarray(block.real)
            else:
                self._promote_complex()
        norms = np.linalg.norm(block, axis=0)
        bscale = norms.max()
        if bscale == 0.0:
            return False
        room = self.max_dim - self.dim
        if room <= 0:
            return False
        for _ in range(2):  # CGS2 against the existing basis
            if self.dim:
                block = block - self.u @ (self.u.conj().T @ block)
        q, r, _ = sla.qr(block, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        count = int(np.count_nonzero(diag > _BASIS_DROP_TOL * bscale))
        count = min(count, room)
        if count == 0:
            return False
        new = q[:, :count]
        if np.iscomplexobj(new) and not np.iscomplexobj(self.u):
            self._promote_complex()
        elif np.iscomplexobj(self.u) and not np.iscomplexobj(new):
            new = new.astype(complex)
        if self.dim and diag[count - 1] < _REORTH_TOL * bscale:
            for _ in range(2):
                new = new - self.u @ (self.u.conj().T @ new)
            new = sla.qr(new, mode="economic")[0]
            self.stats["reorthogonalizations"] += 1
        self.last = self.dim
        self.u = np.hstack([self.u, new])
        self.au = np.hstack([self.au, self.g1 @ new])
        if self.atu is not None:
            self.atu = np.hstack([self.atu, self.g1.T @ new])
        self._h = None
        return True

    def state_dict(self):
        """Snapshot of the growth state (checkpoint/resume round trip).

        ``u``/``au``/``last`` determine every future absorb/extend
        decision.  Only the shared basis is snapshotted, and it keeps no
        ``Aᵀ U``.  The projected-matrix cache ``_h`` is
        mathematically derived but still snapshotted when present: a
        BLAS product is only reproducible down to the last ulp within
        one execution context, so a resumed run recomputing ``H`` from
        bit-identical factors can land one ulp away from the cached
        value the cold run kept using — enough to break bit-identical
        resume at tight solve tolerances.
        """
        return {
            "u": self.u.copy(),
            "au": self.au.copy(),
            "last": int(self.last),
            "max_dim": int(self.max_dim),
            "h": None if self._h is None else self._h.copy(),
        }

    def load_state(self, state):
        """Restore a :meth:`state_dict` snapshot (same ``g1``).

        An ``atu`` entry, which older snapshots carry, is ignored.
        """
        self.u = np.ascontiguousarray(np.asarray(state["u"]))
        self.au = np.ascontiguousarray(np.asarray(state["au"]))
        self.last = int(state["last"])
        self.max_dim = int(state.get("max_dim", self.max_dim))
        h = state.get("h")
        self._h = None if h is None else np.ascontiguousarray(np.asarray(h))

    def h(self):
        """Projected matrix ``H = Uᴴ G1 U`` (cached per growth step)."""
        if self._h is None or self._h.shape[0] != self.dim:
            self._h = self.u.conj().T @ self.au
        return self._h

    def gram_plain(self):
        """``RuᴴRu`` with ``Ru = G1 U − U H`` (formed explicitly — the
        ``AUᴴAU − HᴴH`` difference would floor the measurable residual
        around √eps through cancellation)."""
        ru = self.au - self.u @ self.h()
        gr = ru.conj().T @ ru
        return 0.5 * (gr + gr.conj().T)

    def gram_transpose(self):
        """``SuᴴSu`` with ``Su = (I − UUᴴ) G1ᵀ U``."""
        su = self.atu - self.u @ (self.u.conj().T @ self.atu)
        gs = su.conj().T @ su
        return 0.5 * (gs + gs.conj().T)


class LowRankKronSolver:
    """Matrix-free Galerkin solver for the lifted Kronecker-sum systems.

    Solves ``((k© G1) + shift·I) x = rhs`` for ``k ∈ {2, 3}`` with a
    Tucker-factored right-hand side, and the paper's eq.-(18) Π Sylvester
    equation with a sparse low-rank ``G2`` — **without a Schur form of
    G1**.  All large-``n`` work is shifted solves with ``G1``/``G1ᵀ``
    through the caller-supplied callables, which on the sparse path hit
    the resolvent factory's reusable sparse LU.

    Kronecker-sum solves project onto one growing shared extended-Krylov
    basis (directions ``(G1 + σI)^{-1} w`` and ``G1 w``), where the
    projected problem has the same Kronecker-sum structure at size ``r``
    and is solved densely.  Because the basis only grows, moment-chain
    recursions — whose step-``t+1`` right-hand side lives in the
    step-``t`` basis — converge in a single projection after the first
    few steps.

    Concurrency note: one solver-wide lock guards the shared basis, so
    threads sharing a solver (serve handlers reducing the same system)
    serialize through it — the shared-basis reuse is worth far more
    than intra-solve parallelism here.

    The Π equation gets a two-sided projection instead (see
    :meth:`solve_pi`): a private right basis ``U`` compresses the lifted
    ``n²`` side, and a small real left basis ``V`` of rational-Krylov
    directions of ``G1`` carries the state side.  Π is low-rank on both
    sides only where ``G1``'s spectrum is separated; :meth:`solve_pi`
    records the Ritz-spread evidence for that in :attr:`pi_plan`.

    Both iterations stop on **exact** residual norms: with the
    right-hand-side factors absorbed into the basis, Galerkin
    orthogonality reduces the true residual to Gram matrices of the
    explicit defect factors ``G1 U − U H`` / ``(I − UUᴴ) G1ᵀ U`` plus an
    in-space term, so the reported residual is the honest
    ``‖(k©G1 + sI)x − rhs‖`` / :func:`pi_sylvester_residual` value, not
    a proxy.

    Parameters
    ----------
    g1 : (n, n) sparse or dense matrix
    solve_shifted : callable ``(shift, rhs) -> (G1 + shift·I)^{-1} rhs``
    solve_shifted_transpose : callable, optional
        Same contract for ``G1ᵀ``; required by :meth:`solve_pi`.
    tol : float
        Default relative residual target.
    tol_floor : float, optional
        Soft acceptance floor: when the basis cap stalls an iteration
        above *tol* but at or below ``tol_floor``, the solve returns
        the stalled solution (counted in ``stats["soft_accepts"]``)
        instead of raising.  Lets callers request residuals well below
        a downstream decision threshold (e.g. a basis-deflation
        cutoff, whose keep/drop choices must not flip on solve noise)
        without turning previously-convergent problems into failures.
    max_dim : int
        Basis-dimension cap; exceeding it raises
        :class:`~repro.errors.NumericalError`.
    block_cap : int
        Maximum number of columns expanded per extension round.
    """

    def __init__(
        self,
        g1,
        solve_shifted,
        solve_shifted_transpose=None,
        *,
        tol=1e-9,
        tol_floor=None,
        max_dim=None,
        block_cap=32,
        compress_tol=1e-12,
    ):
        if g1.shape[0] != g1.shape[1]:
            raise ValidationError(f"g1 must be square, got {g1.shape}")
        self.g1 = g1
        self.n = g1.shape[0]
        self._solve = solve_shifted
        self._solve_t = solve_shifted_transpose
        self.tol = float(tol)
        self.tol_floor = None if tol_floor is None else float(tol_floor)
        self.max_dim = int(max_dim) if max_dim else min(self.n, 320)
        self.block_cap = int(block_cap)
        self.compress_tol = float(compress_tol)
        self._lock = threading.RLock()
        self.stats = {
            "solves": 0, "pi_iterations": 0, "extensions": 0,
            "soft_accepts": 0, "reorthogonalizations": 0,
        }
        self._basis = _KrylovBasis(g1, self.max_dim, self.stats)
        self._small = None
        self._small_dim = -1
        self._eig = None
        self._eig_dim = -1
        diag = g1.diagonal() if sp.issparse(g1) else np.diag(g1)
        self._fallback_sigma = -(1.0 + float(np.abs(diag).mean()))
        self._sigma_ok = {}
        #: Evidence record of the latest :meth:`solve_pi` call.
        self.pi_plan = None

    @property
    def dim(self):
        """Current dimension of the shared Kronecker-sum basis."""
        return self._basis.dim

    def basis_columns(self):
        """Copy of the shared basis ``U`` (warm-start seed for a
        neighboring parametric corner's solver)."""
        with self._lock:
            return self._basis.u.copy()

    def seed_basis(self, u):
        """Warm-start the shared basis with columns from a *different*
        system's converged basis (e.g. the nearest completed corner of
        a parameter sweep).

        Unlike :meth:`load_state` — which restores a same-``g1``
        snapshot verbatim — seeding runs the columns through
        :meth:`_KrylovBasis.absorb`, which re-orthonormalizes them and
        recomputes ``G1 U`` against *this* solver's ``g1``.
        Every later solve still converges on the exact-residual test,
        so seeding changes iteration counts, never the answers beyond
        the configured tolerance.  Returns True when the basis grew.
        """
        u = np.asarray(u)
        if u.ndim != 2 or u.shape[0] != self.n:
            raise ValidationError(
                f"seed basis must be ({self.n}, r), got {u.shape}"
            )
        with self._lock:
            return self._basis.absorb(u)

    # -- checkpoint state ----------------------------------------------------

    @property
    def state_version(self):
        """Cheap fingerprint of the mutable shared state.

        Changes whenever :meth:`state_dict` would produce a different
        snapshot — used by the checkpoint layer to skip re-serializing
        an unchanged solver between stages.
        """
        basis = self._basis
        return (
            basis.dim,
            bool(np.iscomplexobj(basis.u)),
            len(self._sigma_ok),
            basis._h is not None,
        )

    def state_dict(self):
        """Payload-tree snapshot of everything a resumed run needs to
        replay bit-identically: the shared extended-Krylov basis
        (``U``/``AU``/``last``) and the fallback-shift cache
        ``_sigma_ok`` (which changes *numerics*, not just speed — a
        resumed run must retreat to the same fallback shifts).  The
        dense small-problem caches rebuild deterministically.
        """
        with self._lock:
            state = self._basis.state_dict()
            state["sigma_ok"] = [
                {
                    "sigma": sigma,
                    "transpose": bool(transpose),
                    "use": sigma_use,
                }
                for (sigma, transpose), sigma_use
                in self._sigma_ok.items()
            ]
            state["stats"] = {
                key: int(value) for key, value in self.stats.items()
            }
            return state

    def load_state(self, state):
        """Restore a :meth:`state_dict` snapshot onto this solver.

        The solver must wrap the same ``g1`` (the checkpoint layer
        guarantees that through the structural fingerprint in its key).
        """
        with self._lock:
            self._basis.load_state(state)
            self.max_dim = self._basis.max_dim
            self._sigma_ok = {
                (complex(entry["sigma"]), bool(entry["transpose"])):
                    entry["use"]
                for entry in state.get("sigma_ok", [])
            }
            for key, value in state.get("stats", {}).items():
                if key in self.stats:
                    self.stats[key] = int(value)
            self._small = None
            self._small_dim = -1
            self._eig = None
            self._eig_dim = -1

    # -- direction generation ------------------------------------------------

    def _apply_inverse(self, sigma, block, transpose=False):
        solve = self._solve_t if transpose else self._solve
        if solve is None:
            raise ValidationError(
                "solve_shifted_transpose is required for transposed "
                "Krylov directions (the Pi Sylvester iteration)"
            )
        key = (complex(sigma), transpose)
        sigma_use = self._sigma_ok.get(key, sigma)
        try:
            return solve(sigma_use, block)
        except NumericalError:
            if sigma_use != sigma:
                raise
            # σ sits (numerically) on the spectrum — e.g. a DC inverse of
            # a singular G1; retreat further into the left half-plane.
            sigma_use = sigma + self._fallback_sigma
            out = solve(sigma_use, block)
            self._sigma_ok[key] = sigma_use
            return out

    def _extend(self, basis, sigma, transpose=False):
        if basis.dim >= basis.max_dim:
            return False
        w = basis.u[:, basis.last:]
        if w.shape[1] == 0:
            w = basis.u
        if w.shape[1] > self.block_cap:
            w = w[:, : self.block_cap]
        if transpose:
            cands = [
                self._apply_inverse(sigma, w, transpose=True),
                basis.g1.T @ w,
            ]
        else:
            cands = [self._apply_inverse(sigma, w), basis.g1 @ w]
        self.stats["extensions"] += 1
        return basis.absorb(np.hstack(cands))

    # -- shifted Kronecker-sum solves ----------------------------------------

    def solve(self, rhs, k=2, shift=0.0, tol=None):
        """Solve ``((k© G1) + shift·I) x = rhs`` for a factored *rhs*.

        *rhs* is a :class:`FactoredTensor` with ``k`` modes of size
        ``n``; the result is a compressed :class:`FactoredTensor`.
        Failure to reach *tol* within the basis cap raises
        :class:`NumericalError`.
        """
        if k not in (2, 3):
            raise ValidationError(f"k must be 2 or 3, got {k}")
        if not isinstance(rhs, FactoredTensor):
            raise ValidationError(
                "rhs must be a FactoredTensor (use KronSumSolver for "
                "dense right-hand sides)"
            )
        if rhs.order != k or rhs.shape != (self.n,) * k:
            raise ValidationError(
                f"rhs has shape {rhs.shape}, expected {(self.n,) * k}"
            )
        tol = self.tol if tol is None else float(tol)
        with self._lock:
            self.stats["solves"] += 1
            rhs = rhs.compress(self.compress_tol)
            rhs_norm = float(np.linalg.norm(rhs.core))
            if rhs_norm == 0.0:
                return FactoredTensor.zeros((self.n,) * k)
            basis = self._basis
            basis.absorb(np.hstack(rhs.factors))
            sigma = shift / k
            resid = np.inf
            pending = None
            for _ in range(_MAX_GALERKIN_ROUNDS):
                try:
                    y, resid = self._galerkin(rhs, k, shift)
                    # Any rhs component outside span(U) — possible when
                    # the basis cap truncated the absorption — enters
                    # the true residual directly; without this term a
                    # saturated basis could report convergence on a
                    # silently projected right-hand side.
                    resid = float(np.sqrt(
                        resid ** 2 + self._rhs_defect_sq(basis, rhs)
                    ))
                    pending = None
                except NumericalError as exc:
                    # A Ritz combination λ_i + λ_j (+ λ_k) + shift can
                    # sit (numerically) on zero at an intermediate basis
                    # even when the full operator is fine; growing the
                    # basis moves the Ritz values (same retry as
                    # solve_pi).
                    pending = exc
                    y = None
                if y is not None and resid <= tol * rhs_norm:
                    out = FactoredTensor(y, [basis.u] * k)
                    return out.compress(
                        self.compress_tol, factors_orthonormal=True
                    )
                if not self._extend(basis, sigma):
                    floor = self.tol_floor
                    if (y is not None and floor is not None
                            and resid <= floor * rhs_norm):
                        self.stats["soft_accepts"] += 1
                        out = FactoredTensor(y, [basis.u] * k)
                        return out.compress(
                            self.compress_tol, factors_orthonormal=True
                        )
                    break
            if pending is not None:
                raise pending
            raise NumericalError(
                f"low-rank Kronecker-sum solve (k={k}, shift={shift}) "
                f"stalled at relative residual {resid / rhs_norm:.3e} "
                f"with basis dimension {basis.dim} (cap {basis.max_dim})"
            )

    @staticmethod
    def _rhs_defect_sq(basis, rhs):
        """``‖rhs − (⊗UUᴴ) rhs‖²`` via the telescoping decomposition.

        The pieces (projector on modes < i, defect at mode i, identity
        after) are mutually orthogonal, so the defect is summed exactly
        — no ``‖rhs‖² − ‖proj‖²`` cancellation.
        """
        u = basis.u
        projected = [u @ (u.conj().T @ f) for f in rhs.factors]
        defects = [f - p for f, p in zip(rhs.factors, projected)]
        total = 0.0
        for i in range(rhs.order):
            factors = []
            for t in range(rhs.order):
                if t < i:
                    factors.append(projected[t])
                elif t == i:
                    factors.append(defects[i])
                else:
                    factors.append(rhs.factors[t])
            total += FactoredTensor(rhs.core, factors).norm() ** 2
        return total

    def _small_solver(self):
        if self._small_dim != self.dim:
            self._small = KronSumSolver(self._basis.h())
            self._small_dim = self.dim
        return self._small

    def _eig_factors(self):
        """Eigendecomposition of ``H`` (or None when ill-conditioned)."""
        if self._eig_dim != self.dim:
            self._eig_dim = self.dim
            self._eig = None
            try:
                lam, s = np.linalg.eig(self._basis.h())
                sinv = np.linalg.inv(s)
                if np.linalg.cond(s) <= _EIG_COND_LIMIT:
                    self._eig = (lam, s, sinv)
            except np.linalg.LinAlgError:
                self._eig = None
        return self._eig

    def _projected_kron_solve(self, c, k, shift):
        """Solve ``((k© H) + shift) Y = C`` at the projected size."""
        dim = self.dim
        eig = self._eig_factors() if (k == 3 and dim > _EIG_THRESHOLD) \
            else None
        if eig is not None:
            lam, s, sinv = eig
            ct = c.astype(complex)
            for axis in range(k):
                ct = mode_apply(ct, sinv, axis)
            denom = (
                lam[:, None, None] + lam[None, :, None] + lam[None, None, :]
            ) + shift
            _check_diag_gap(denom, max(np.abs(lam).max(), 1.0))
            y = ct / denom
            for axis in range(k):
                y = mode_apply(y, s, axis)
            return y
        small = self._small_solver()
        return small.solve(c.reshape(-1), k=k, shift=shift).reshape(
            (dim,) * k
        )

    def _galerkin(self, rhs, k, shift):
        """One projected solve; returns ``(core, exact residual norm)``."""
        basis = self._basis
        c = rhs.core.astype(complex)
        for axis, f in enumerate(rhs.factors):
            c = mode_apply(c, basis.u.conj().T @ f, axis)
        y = self._projected_kron_solve(c, k, shift)
        h = basis.h()
        # In-space defect (nonzero when the projected solve itself is
        # inexact, e.g. the eig fast path on a non-normal H)...
        r_in = shift * y - c
        for axis in range(k):
            r_in = r_in + mode_apply(y, h, axis)
        resid_sq = float(np.real(np.vdot(r_in, r_in)))
        # ...plus the out-of-space part through the defect Gram.
        gr = basis.gram_plain()
        for axis in range(k):
            resid_sq += max(
                float(np.real(np.vdot(y, mode_apply(y, gr, axis)))), 0.0
            )
        return y, float(np.sqrt(max(resid_sq, 0.0)))

    # -- the eq.-(18) Π equation ---------------------------------------------

    def solve_pi(self, g2, tol=None, max_rank=None, max_seed=None,
                 seed_basis=None, floor=None):
        """Two-sided low-rank solve of ``G1 Π + G2 = Π (G1 ⊕ G1)``.

        Builds a private real basis ``U`` from ``G2``'s lifted-side COO
        fibers plus ``G1ᵀ``-sided extended-Krylov directions, and solves
        the right-projected equation ``G1 Π̂ + Ĝ2 = Π̂ (H ⊕ H)`` by a
        Galerkin projection of its left (state) side on a second real
        basis ``V``.  ``V`` lives for this call: it starts from the unit
        vectors of ``G2``'s nonzero rows and grows by
        ``(G1 − μI)^{-1}`` directions at pair sums ``μ`` of ``H`` (see
        :meth:`_pi_left_solve`), so a handful of cached sparse LUs serve
        every round.  ``V`` holds at most ``G2``'s row count plus
        *max_rank* columns.  Returns a :class:`FactoredPi`
        ``Π ≈ V Y (U⊗U)ᵀ`` whose factors are all ``O(n·r)``; the
        stopping test ``residual ≤ tol · ‖G2‖_F`` is the true
        :func:`pi_sylvester_residual` value of that Π, measured through
        Gram matrices without forming ``V Y`` (see
        :meth:`_pi_right_solve`), so the left projection only decides
        when ``V`` stops growing, never whether Π converged.

        *seed_basis* optionally warm-starts the right basis with extra
        real ``(n, r)`` columns — typically the ``.u`` factor of a
        neighboring parametric corner's converged :class:`FactoredPi`.
        The mandatory G2 fiber seeds are always absorbed first (they
        make the residual identity exact), the warm columns after; the
        stopping test is unchanged, so a warm start saves extension
        rounds without relaxing the accuracy contract.

        Π is low-rank only when ``G1``'s spectrum is separated.  The
        evidence is read from the fiber-seeded basis *before* any warm
        columns (so a warm-started solve and its cold twin judge the
        same matrix): the G2 fiber count and the :func:`ritz_spread` of
        the eigenvalues of ``H = UᵀG1U``, re-read on every later
        round's ``H``.  Up to :data:`PI_DENSE_LIMIT` states, evidence
        against a low-rank Π — more fibers than *max_seed*, a Ritz
        value with ``Re θ >= 0``, or a spread of at least
        :data:`PI_SPREAD_LIMIT` — stops the solve with
        :class:`PiNotLowRank`, before its first round when the seeded
        basis already shows it; the caller then takes the dense Schur
        solve.  The evidence never changes the low-rank arithmetic.

        Every call leaves its record in :attr:`pi_plan`: ``route``
        (``"lowrank"``, or ``"dense"`` on a handover), ``reason``
        (``"separated"``, ``"spread"``, ``"unstable"``, ``"fibers"`` or
        ``"zero-g2"``), ``n``, ``nnz_g1``, ``g2_fibers``, ``spread``
        (of the seeded basis, or of the basis that crossed the limit),
        ``rounds``, ``rank`` (right-basis dimension reached),
        ``left_rank`` (dimension of ``V`` behind the returned Π; 0 when
        no factored Π is returned), ``residual`` (relative to
        ``‖G2‖_F``, once converged) and ``soft_accept``.

        Raises :class:`NumericalError` when ``G2``'s fiber spans are too
        wide for a low-rank treatment (callers may then fall back to the
        dense Schur path) or when the iteration stalls above *floor*
        (the soft acceptance threshold — defaults to the solver's
        ``tol_floor``; see the class docstring).
        """
        tol = self.tol if tol is None else float(tol)
        floor = self.tol_floor if floor is None else float(floor)
        with self._lock:
            n = self.n
            rows, ii, jj, vals = _g2_coo_parts(g2, n)
            if np.iscomplexobj(vals) or np.iscomplexobj(
                self.g1.data if sp.issparse(self.g1) else self.g1
            ):
                raise ValidationError(
                    "the low-rank Pi solve expects real G1/G2"
                )
            nnz = (
                self.g1.nnz if sp.issparse(self.g1)
                else np.count_nonzero(self.g1)
            )
            plan = self.pi_plan = {
                "route": "lowrank", "reason": "separated", "n": int(n),
                "nnz_g1": int(nnz), "g2_fibers": 0, "spread": None,
                "rounds": 0, "rank": 0, "left_rank": 0, "residual": None,
                "soft_accept": False,
            }
            handover = n <= PI_DENSE_LIMIT
            g2_norm = float(np.linalg.norm(vals))
            if g2_norm == 0.0:
                plan.update(reason="zero-g2", residual=0.0)
                return FactoredPi(np.zeros((n, 0)), np.zeros((0, 0)),
                                  np.zeros((n, 0)), 0.0, 0.0)
            if max_rank is None:
                # Cap the right rank where n·r² reaches ~1.6e7 (at
                # least 24): a Π that is not low-rank then stalls and is
                # refused instead of climbing towards r = n.
                max_rank = min(
                    self.max_dim, max(int(np.sqrt(1.6e7 / max(n, 1))), 24)
                )
            basis = _KrylovBasis(
                self.g1, max_rank, self.stats, transpose=True
            )
            seeds = self._pi_seed_blocks(
                rows, ii, jj, vals, max_seed, plan, handover
            )
            for block in seeds:
                basis.absorb(block)
            self._check_pi_spread(basis, plan, handover)
            # The left basis V starts from the unit vectors of G2's
            # nonzero rows, which span Ĝ2's columns exactly, and may add
            # as many rational directions as the right basis may hold;
            # it never needs G1ᵀV.
            g2_rows, row_index = np.unique(rows, return_inverse=True)
            left_basis = _KrylovBasis(
                self.g1, min(n, g2_rows.size + max_rank), self.stats
            )
            unit = np.zeros((n, g2_rows.size))
            unit[g2_rows, np.arange(g2_rows.size)] = 1.0
            left_basis.absorb(unit)
            if seed_basis is not None:
                warm = np.asarray(seed_basis)
                if warm.ndim != 2 or warm.shape[0] != n:
                    raise ValidationError(
                        f"Pi seed basis must be ({n}, r), got {warm.shape}"
                    )
                if np.iscomplexobj(warm):
                    warm = np.ascontiguousarray(warm.real)
                basis.absorb(warm)
            resid = np.inf
            pending = None
            for _ in range(_MAX_GALERKIN_ROUNDS):
                self.stats["pi_iterations"] += 1
                plan["rounds"] += 1
                try:
                    y, resid = self._pi_right_solve(
                        basis, left_basis, g2_rows, row_index, ii, jj,
                        vals, seeds, _PI_LEFT_FRACTION * tol * g2_norm,
                    )
                    pending = None
                except NumericalError as exc:
                    # A Ritz pair λ_b + λ_c can sit (numerically) on a
                    # Ritz value of VᵀG1V even when the full equation is
                    # fine; growing the basis moves the Ritz values.
                    pending = exc
                    y = None
                if y is not None and resid <= tol * g2_norm:
                    plan.update(
                        rank=basis.dim, left_rank=left_basis.dim,
                        residual=resid / g2_norm,
                    )
                    return FactoredPi(
                        left_basis.u, y, basis.u, float(resid), g2_norm
                    )
                if not self._extend(basis, 0.0, transpose=True):
                    if (y is not None and floor is not None
                            and resid <= floor * g2_norm):
                        self.stats["soft_accepts"] += 1
                        plan.update(
                            rank=basis.dim, left_rank=left_basis.dim,
                            residual=resid / g2_norm, soft_accept=True,
                        )
                        _log.warning(
                            "low-rank Pi soft-accepted at relative "
                            "residual %.2e (target %.0e) with right-basis "
                            "rank %d of n=%d after %d rounds",
                            resid / g2_norm, tol, basis.dim, n,
                            plan["rounds"],
                        )
                        return FactoredPi(
                            left_basis.u, y, basis.u, float(resid), g2_norm
                        )
                    break
                self._check_pi_spread(basis, plan, handover)
            plan["rank"] = basis.dim
            if pending is not None:
                raise pending
            raise NumericalError(
                f"low-rank Pi Sylvester iteration stalled at relative "
                f"residual {resid / g2_norm:.3e} with right-basis "
                f"dimension {basis.dim} (cap {basis.max_dim})"
            )

    def _pi_seed_blocks(self, rows, ii, jj, vals, max_seed, plan, handover):
        """Spanning blocks of G2's lifted-side (mode-1/2) fiber spaces.

        Gathered directly from the COO data (never ``toarray``).  With
        these absorbed, ``G2 = Ĝ2 (U⊗U)ᵀ`` holds exactly and the
        residual identity in :meth:`_pi_right_solve` is exact.  A fiber
        count beyond *max_seed* means ``G2`` is not low-rank on the
        lifted side and the solver refuses at the first such block
        (handing over when *handover*); the largest count read goes
        into *plan*.
        """
        if max_seed is None:
            max_seed = max(4 * self.block_cap, 64)
        blocks = []
        for count, block in _g2_fiber_blocks(rows, ii, jj, vals, self.n):
            plan["g2_fibers"] = max(plan["g2_fibers"], count)
            if count > max_seed:
                message = (
                    f"G2 has {count} distinct lifted-side tensor fibers "
                    f"(> {max_seed}); the right-hand side is not "
                    "low-rank — use the dense Schur Pi solve"
                )
                plan["reason"] = "fibers"
                if handover:
                    plan["route"] = "dense"
                    raise PiNotLowRank(message)
                raise NumericalError(message)
            blocks.append(block)
        return blocks

    def _check_pi_spread(self, basis, plan, handover):
        """Read the Ritz evidence of the current Π basis into *plan*.

        The first call (the fiber-seeded basis) fixes ``plan["spread"]``;
        the first basis whose spread reaches :data:`PI_SPREAD_LIMIT`, or
        whose Ritz values leave the open left half-plane, replaces it and
        the reason, and raises :class:`PiNotLowRank` when *handover*.
        """
        rho, stable = ritz_spread(np.linalg.eigvals(basis.h()))
        if plan["spread"] is None:
            plan["spread"] = rho
        if stable and rho < PI_SPREAD_LIMIT:
            return
        if plan["reason"] == "separated":
            plan.update(
                reason="spread" if stable else "unstable", spread=rho,
            )
        if handover:
            plan.update(route="dense", rank=basis.dim)
            raise PiNotLowRank(
                f"Pi basis Ritz spread {rho:.3g} (limit "
                f"{PI_SPREAD_LIMIT:g}, stable={stable}) after "
                f"{plan['rounds']} rounds: G1's spectrum is not separated "
                f"and Pi is not low-rank"
            )

    def _pi_right_solve(self, basis, left_basis, g2_rows, row_index, ii,
                        jj, vals, seeds, left_target):
        """One right-projected Π solve; returns ``(Y, residual)``.

        Solves ``G1 Π̂ − Π̂ (H⊕H) = −Ĝ2`` for ``Π̂ = V Y`` by a Galerkin
        projection of its left side on the small real basis ``V``
        (*left_basis*, see :meth:`_pi_left_solve`) and measures the
        exact residual of ``V Y (U⊗U)ᵀ`` the way :meth:`_galerkin`
        measures Kronecker-sum residuals, without forming ``V Y``.
        ``Ĝ2 = G2 (U⊗U)`` is built on G2's rows *g2_rows* only
        (*row_index* maps each nonzero to its row there); ``V``'s
        unit-vector seeds put it exactly in span ``V``.  With
        ``G1 V = V·VᵀG1V + Rv`` and ``G1ᵀU = U Hᵀ + Su`` the residual
        splits into mutually orthogonal pieces:

        * the projected defect ``VᵀG1V·Y + VᵀĜ2 − Y (H⊕H)``;
        * the left defect ``Rv Y``, through ``RvᵀRv``
          (:meth:`_KrylovBasis.gram_plain`);
        * G2's projection defect, through its explicit fiber defects
          (the ``‖G2‖² − ‖Ĝ2‖²`` difference would floor the measurable
          residual at √eps·‖G2‖ through cancellation; with the fibers
          seeded into ``U`` it is ~0);
        * the out-of-span right defect ``V Y (Su⊗U + U⊗Su)ᵀ``, through
          ``SuᵀSu``.
        """
        u = basis.u
        r = basis.dim
        contrib = np.einsum(
            "e,eb,ec->ebc", vals, u[ii], u[jj], optimize=True
        )
        g2r = np.zeros((g2_rows.size, r, r))
        scatter_add_rows(g2r, row_index, contrib)
        h = basis.h()
        y = self._pi_left_solve(left_basis, h, g2_rows, g2r, left_target)
        k = left_basis.dim
        y3 = y.reshape(k, r, r)
        projected = (
            left_basis.h() @ y
            + left_basis.u[g2_rows].T @ g2r.reshape(g2_rows.size, r * r)
            - (np.matmul(h.T, y3) + y3 @ h).reshape(k, r * r)
        )
        resid_sq = float(np.real(np.vdot(projected, projected)))
        resid_sq += max(float(np.real(
            np.vdot(y, left_basis.gram_plain() @ y)
        )), 0.0)
        for block in seeds:
            db = block - u @ (u.T @ block)
            resid_sq += float(np.vdot(db, db).real)
        gs = basis.gram_transpose()
        resid_sq += max(float(np.real(np.vdot(y3, np.matmul(gs, y3)))), 0.0)
        resid_sq += max(float(np.real(np.vdot(y3, y3 @ gs.T))), 0.0)
        return y, float(np.sqrt(max(resid_sq, 0.0)))

    def _pi_left_solve(self, left_basis, h, g2_rows, g2r, target):
        """Left Galerkin solve of ``G1 Π̂ − Π̂ (H⊕H) = −Ĝ2``; returns
        ``Y`` (``(k, r²)``) with ``Π̂ = V Y``.

        The projected equation ``(VᵀG1V) Y − Y (H⊕H) = −VᵀĜ2`` is swept
        in the complex Schur bases of ``H = Q T Qᴴ`` and
        ``VᵀG1V = Z S Zᴴ``: ``T⊕T`` is upper triangular in lexicographic
        pair order, so each column ``e`` of the pair index is one
        triangular Sylvester solve ``S X − X (T + T[e,e] I) = C_e`` plus
        the couplings from columns ``< e``.  ``Ĝ2`` lives on G2's rows
        (*g2_rows*), which ``V`` spans; *g2r* holds those rows only.

        ``V`` grows while the left defect ``‖(G1V − V·VᵀG1V) Y‖_F``
        (through :meth:`_KrylovBasis.gram_plain`) exceeds *target*: each
        step adds ``(G1 − μI)^{-1} (G1V − V·VᵀG1V) y`` for the worst
        column ``y`` of ``Y``, with ``μ = λ_d + λ_e`` its pair sum — the
        exact correction of that column when the pairs decouple — real
        and imaginary parts apart, so ``V`` stays real.  It stops at the
        target, at ``V``'s cap, or when a direction adds nothing new.
        """
        r = h.shape[0]
        t, q = sla.schur(h.astype(complex), output="complex")
        lam = np.diag(t)
        g2q = np.einsum(
            "pbc,bd,ce->pde", g2r, q, q, optimize=True
        ).reshape(g2_rows.size, r * r)
        shifted = t.copy()
        shifted_diag = _diagonal(shifted)
        while True:
            v = left_basis.u
            k = left_basis.dim
            hv = left_basis.h()
            s, z = sla.schur(hv.astype(complex), output="complex")
            sd = np.diag(s)
            _check_diag_gap(
                sd[:, None, None] - lam[None, :, None] - lam[None, None, :],
                max(np.abs(sd).max(), np.abs(lam).max(), 1.0),
            )
            c = -(z.conj().T @ (v[g2_rows].T @ g2q)).reshape(k, r, r)
            y = np.empty((k, r, r), dtype=complex)
            for e in range(r):
                rhs = c[:, :, e]
                if e:
                    rhs = rhs + y[:, :, :e] @ t[:e, e]
                shifted_diag[:] = lam + lam[e]
                sol, scale, _ = ztrsyl(s, shifted, rhs, isgn=-1)
                y[:, :, e] = sol / scale
            y = z @ y.reshape(k, r * r)
            col_sq = np.real(np.einsum(
                "ap,ab,bp->p", y.conj(), left_basis.gram_plain(), y,
                optimize=True,
            ))
            if (np.sqrt(max(col_sq.sum(), 0.0)) <= target
                    or k >= left_basis.max_dim):
                break
            worst = int(np.argmax(col_sq))
            d, e = divmod(worst, r)
            w = left_basis.au @ y[:, worst] - v @ (hv @ y[:, worst])
            x = self._apply_inverse(-(lam[d] + lam[e]), w)
            # One column at a time: a block QR would amplify the
            # re-orthogonalization error of nearly parallel parts.
            grew = left_basis.absorb(x.real)
            if np.any(x.imag):
                grew = left_basis.absorb(x.imag) or grew
            if not grew:
                break
        qh = q.conj().T
        y = np.einsum(
            "ade,db,ec->abc", y.reshape(k, r, r), qh, qh, optimize=True
        ).reshape(k, r * r)
        if np.abs(y.imag).max() <= 1e-8 * max(np.abs(y).max(), 1.0):
            y = np.ascontiguousarray(y.real)
        return y
