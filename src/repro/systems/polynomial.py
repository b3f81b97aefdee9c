"""Polynomial state-space systems (QLDAE and cubic ODE base class).

The paper's object of study is the quadratic-linear DAE (eq. 1/2)

    C x' = G1 x + G2 (x ⊗ x) + D1 x u + B u,

and §3.4 extends the method to ODEs with a cubic Kronecker term
``G3 (x ⊗ x ⊗ x)``.  :class:`PolynomialODE` covers both: a polynomial
right-hand side with optional quadratic/cubic terms, optional bilinear
input coupling (one ``D1`` matrix per input), an optional mass matrix
``C`` and a linear output map.

Nonlinear terms are stored as sparse coefficient matrices
(``G2: n × n²``, ``G3: n × n³``) *and* as unpacked COO index arrays, so
right-hand-side and Jacobian evaluation cost ``O(nnz)`` instead of
materializing ``x ⊗ x`` / ``x ⊗ x ⊗ x``.

Sparsity contract (the circuit-scale fast path):

* ``g1`` and ``mass`` passed as scipy sparse matrices are **kept** as CSR
  (dense input stays dense — nothing is ever silently sparsified).
* For such sparse systems :meth:`PolynomialODE.jacobian` returns a CSR
  matrix assembled from the COO index arrays, ``d1`` matrices are coerced
  to CSR, and :meth:`PolynomialODE.to_explicit` folds a sparse mass
  matrix via a sparse LU without densifying ``g1``/``g2``/``g3``.
* Densification happens only at documented seams: Galerkin projection
  (:meth:`PolynomialODE.project` — the ROM is small and dense by
  construction), the *coupled*-strategy lifted operators
  (:mod:`repro.volterra.associated`; the decoupled H2 / factored-Π / H3
  machinery runs matrix-free on the sparse LU), and
  :class:`~repro.systems.descriptor.DescriptorPencil` (dense QZ).
"""

from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .._validation import as_matrix, as_sparse, as_square_matrix
from ..errors import NumericalError, SystemStructureError, ValidationError
from ..linalg.lu import sparse_lu
from ..serialize import load_payload, save_payload
from .lti import StateSpace

__all__ = ["PolynomialODE", "QLDAE", "CubicODE"]


class _QuadraticTerm:
    """Evaluator for ``G2 (x ⊗ x)``.

    Two storage schemes: COO index arrays (O(nnz) per evaluation — right
    for large sparse circuit matrices) and, for small systems such as
    ROMs whose projected ``Ĝ2`` is dense, a packed ``(n, n, n)`` tensor
    evaluated with BLAS contractions.  The dense path is what makes a
    30-state ROM's transient markedly faster than the sparse full model
    (per-step Python overhead would otherwise dominate).
    """

    _DENSE_LIMIT = 48

    def __init__(self, g2, n):
        coo = g2.tocoo()
        self.rows = coo.row.astype(np.intp)
        self.i = (coo.col // n).astype(np.intp)
        self.j = (coo.col % n).astype(np.intp)
        self.vals = coo.data.astype(float)
        self.n = n
        self._tensor = None
        if n <= self._DENSE_LIMIT and self.vals.size:
            tensor = np.zeros((n, n, n))
            np.add.at(tensor, (self.rows, self.i, self.j), self.vals)
            self._tensor = tensor

    def eval(self, x):
        if self._tensor is not None:
            return (self._tensor @ x) @ x
        contrib = self.vals * x[self.i] * x[self.j]
        return np.bincount(self.rows, weights=contrib, minlength=self.n)

    def eval_bilinear(self, a, b):
        """Evaluate ``G2 (a ⊗ b)`` for two different vectors."""
        if self._tensor is not None:
            return (self._tensor @ b) @ a
        contrib = self.vals * a[self.i] * b[self.j]
        return np.bincount(self.rows, weights=contrib, minlength=self.n)

    def add_jacobian(self, jac, x):
        if self._tensor is not None:
            jac += self._tensor @ x
            jac += np.tensordot(self._tensor, x, axes=([1], [0]))
            return
        np.add.at(jac, (self.rows, self.i), self.vals * x[self.j])
        np.add.at(jac, (self.rows, self.j), self.vals * x[self.i])

    def jacobian_sparse(self, x):
        """Jacobian contribution ``∂[G2 (x⊗x)]/∂x`` as a CSR matrix.

        Duplicate (row, col) entries are summed by the COO→CSR
        conversion, so the result matches :meth:`add_jacobian` exactly.
        """
        rows = np.concatenate([self.rows, self.rows])
        cols = np.concatenate([self.i, self.j])
        data = np.concatenate(
            [self.vals * x[self.j], self.vals * x[self.i]]
        )
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


class _CubicTerm:
    """Evaluator for ``G3 (x ⊗ x ⊗ x)``.

    Like :class:`_QuadraticTerm`: COO arrays for large sparse systems, a
    packed ``(n, n, n, n)`` tensor with BLAS contractions for small
    (ROM-sized) dense ones.
    """

    _DENSE_LIMIT = 32

    def __init__(self, g3, n):
        coo = g3.tocoo()
        self.rows = coo.row.astype(np.intp)
        col = coo.col
        self.i = (col // (n * n)).astype(np.intp)
        self.j = ((col // n) % n).astype(np.intp)
        self.k = (col % n).astype(np.intp)
        self.vals = coo.data.astype(float)
        self.n = n
        self._tensor = None
        if n <= self._DENSE_LIMIT and self.vals.size:
            tensor = np.zeros((n, n, n, n))
            np.add.at(
                tensor, (self.rows, self.i, self.j, self.k), self.vals
            )
            self._tensor = tensor

    def eval(self, x):
        if self._tensor is not None:
            return ((self._tensor @ x) @ x) @ x
        contrib = self.vals * x[self.i] * x[self.j] * x[self.k]
        return np.bincount(self.rows, weights=contrib, minlength=self.n)

    def add_jacobian(self, jac, x):
        if self._tensor is not None:
            txx = (self._tensor @ x) @ x  # contract k then j -> (r, i)
            jac += txx
            t_k = self._tensor @ x  # (r, i, j)
            jac += np.tensordot(t_k, x, axes=([1], [0]))  # i-slot
            t_j = np.tensordot(self._tensor, x, axes=([2], [0]))  # (r,i,k)
            jac += np.tensordot(t_j, x, axes=([1], [0]))  # i-slot, k free
            return
        np.add.at(jac, (self.rows, self.i), self.vals * x[self.j] * x[self.k])
        np.add.at(jac, (self.rows, self.j), self.vals * x[self.i] * x[self.k])
        np.add.at(jac, (self.rows, self.k), self.vals * x[self.i] * x[self.j])

    def jacobian_sparse(self, x):
        """Jacobian contribution ``∂[G3 (x⊗x⊗x)]/∂x`` as a CSR matrix."""
        rows = np.concatenate([self.rows, self.rows, self.rows])
        cols = np.concatenate([self.i, self.j, self.k])
        data = np.concatenate(
            [
                self.vals * x[self.j] * x[self.k],
                self.vals * x[self.i] * x[self.k],
                self.vals * x[self.i] * x[self.j],
            ]
        )
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


def _normalize_d1(d1, n, m, sparse=False):
    """Normalize ``d1`` to a tuple of m (n, n) matrices or None.

    Accepts a single matrix (ndarray, scipy sparse, or plain nested
    lists) or a sequence of m matrices.  With ``sparse`` (set when the
    owning system stores ``g1`` sparse) the matrices are kept/coerced to
    CSR so the assembled Jacobian stays sparse; otherwise they are dense.
    """
    if d1 is None:
        return None
    if sp.issparse(d1):
        d1 = [d1]
    else:
        if not isinstance(d1, (list, tuple, np.ndarray)):
            d1 = list(d1)
        if not (
            isinstance(d1, (list, tuple))
            and any(sp.issparse(el) for el in d1)
        ):
            # Coerce *before* the ndim check: a plain nested-list 2-D d1
            # is a single matrix, not a sequence of 1-D per-input rows.
            try:
                arr = np.asarray(d1)
            except ValueError:
                arr = None  # ragged sequence; validated per entry below
            if arr is not None and arr.dtype != object:
                if arr.ndim == 2:
                    d1 = [arr]
                elif arr.ndim == 3:
                    d1 = list(arr)
    mats = []
    for idx, mat in enumerate(d1):
        mat = as_square_matrix(mat, f"d1[{idx}]", allow_sparse=sparse)
        if sparse and not sp.issparse(mat):
            # A dense D1 on a sparse system would densify every Jacobian
            # assembly; coerce so the CSR contract holds end-to-end.
            mat = sp.csr_matrix(mat)
        mats.append(mat)
        if mats[-1].shape != (n, n):
            raise SystemStructureError(
                f"d1[{idx}] has shape {mats[-1].shape}, expected ({n}, {n})"
            )
    if len(mats) == 1 and m > 1:
        raise SystemStructureError(
            f"got one D1 matrix but {m} inputs; pass one per input"
        )
    if len(mats) != m:
        raise SystemStructureError(
            f"got {len(mats)} D1 matrices for {m} inputs"
        )

    def _nonzeros(mat):
        return (
            mat.count_nonzero() if sp.issparse(mat) else np.count_nonzero(mat)
        )

    if all(_nonzeros(mat) == 0 for mat in mats):
        return None
    return tuple(mats)


def _solve_columns(solve, coeff, chunk=512):
    """Apply a mass-matrix solve to a sparse ``(n, width)`` matrix
    column-wise, touching only columns that carry nonzeros.

    *solve* maps a dense ``(n, k)`` block to ``C^{-1}`` times it.  Works
    entirely in nnz-sized structures: a CSC view (or a dense copy) of the
    full ``(n, n^k)`` width would allocate O(n^k), so the nonzero columns
    are compacted through the COO indices first.  Returns CSR.
    """
    coo = coeff.tocoo()
    if coo.nnz == 0:
        return sp.csr_matrix(coeff.shape)
    cols, local_col = np.unique(coo.col, return_inverse=True)
    compact = sp.csc_matrix(
        (coo.data, (coo.row, local_col)),
        shape=(coeff.shape[0], cols.size),
    )
    rows_acc, cols_acc, vals_acc = [], [], []
    for start in range(0, cols.size, chunk):
        block = solve(compact[:, start : start + chunk].toarray())
        r, c = np.nonzero(block)
        rows_acc.append(r)
        cols_acc.append(cols[start + c])
        vals_acc.append(block[r, c])
    return sp.csr_matrix(
        (
            np.concatenate(vals_acc),
            (np.concatenate(rows_acc), np.concatenate(cols_acc)),
        ),
        shape=coeff.shape,
    )


class PolynomialODE:
    """Polynomial system ``C x' = G1 x + G2 x⊗x + G3 x⊗x⊗x + Σ D1ᵢ x uᵢ + B u``.

    Parameters
    ----------
    g1 : (n, n) array_like or sparse
        Linear state matrix.  Scipy sparse input is kept as CSR and
        switches the system onto the sparse fast path (see module
        docstring); dense input stays dense.
    b : (n,) or (n, m) array_like
        Input matrix; a vector means a single input.
    g2 : (n, n²) array_like or sparse, optional
        Quadratic coefficient matrix.
    g3 : (n, n³) array_like or sparse, optional
        Cubic coefficient matrix.
    d1 : (n, n) matrix or sequence of m matrices, optional
        Bilinear input coupling; the MIMO generalization uses one matrix
        per input column (``Σ_i D1ᵢ x uᵢ``).
    mass : (n, n) array_like or sparse, optional
        Mass matrix ``C`` (paper eq. 1); ``None`` means identity.  Must be
        invertible here — singular pencils go through
        :mod:`repro.systems.descriptor` first.  Sparse input is kept as
        CSR and factored with a sparse LU wherever it is inverted.
    output : (p, n) array_like, optional
        Output map ``y = output @ x``; default observes the full state.
    name : str
        Human-readable label used in reports.
    """

    def __init__(
        self,
        g1,
        b,
        g2=None,
        g3=None,
        d1=None,
        mass=None,
        output=None,
        name="",
    ):
        self.g1 = as_square_matrix(g1, "g1", allow_sparse=True)
        n = self.g1.shape[0]
        b = np.asarray(b)
        if b.ndim == 1:
            b = b[:, None]
        self.b = as_matrix(b, "b")
        if self.b.shape[0] != n:
            raise SystemStructureError(
                f"b has {self.b.shape[0]} rows, expected {n}"
            )
        m = self.b.shape[1]

        self.g2 = None if g2 is None else as_sparse(g2, "g2")
        if self.g2 is not None and self.g2.shape != (n, n * n):
            raise SystemStructureError(
                f"g2 must be (n, n^2) = ({n}, {n * n}), got {self.g2.shape}"
            )
        self.g3 = None if g3 is None else as_sparse(g3, "g3")
        if self.g3 is not None and self.g3.shape != (n, n**3):
            raise SystemStructureError(
                f"g3 must be (n, n^3) = ({n}, {n ** 3}), got {self.g3.shape}"
            )
        self.d1 = _normalize_d1(d1, n, m, sparse=self.is_sparse)
        self.mass = (
            None
            if mass is None
            else as_square_matrix(mass, "mass", allow_sparse=True)
        )
        if self.mass is not None and self.mass.shape != (n, n):
            raise SystemStructureError(
                f"mass must be ({n}, {n}), got {self.mass.shape}"
            )
        if output is None:
            output = np.eye(n)
        output = np.asarray(output)
        if output.ndim == 1:
            output = output[None, :]
        self.output = as_matrix(output, "output")
        if self.output.shape[1] != n:
            raise SystemStructureError(
                f"output has {self.output.shape[1]} columns, expected {n}"
            )
        self.name = str(name)
        self._quad = None if self.g2 is None else _QuadraticTerm(self.g2, n)
        self._cubic = None if self.g3 is None else _CubicTerm(self.g3, n)
        self._mass_lu = None

    # -- dimensions ------------------------------------------------------------

    @property
    def n_states(self):
        return self.g1.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.output.shape[0]

    @property
    def has_mass(self):
        return self.mass is not None

    @property
    def is_sparse(self):
        """True when ``g1`` is stored as a scipy sparse matrix.

        Sparse systems keep CSR matrices alive end-to-end: ``jacobian``
        returns CSR, the Newton layer factors iteration matrices with a
        sparse LU, and resolvent/Krylov solves go through the factory's
        sparse branch.
        """
        return sp.issparse(self.g1)

    def __repr__(self):
        parts = [f"n={self.n_states}", f"inputs={self.n_inputs}"]
        if self.g2 is not None:
            parts.append("quadratic")
        if self.g3 is not None:
            parts.append("cubic")
        if self.d1 is not None:
            parts.append("bilinear-input")
        if self.mass is not None:
            parts.append("mass")
        label = f" {self.name!r}" if self.name else ""
        return f"{type(self).__name__}({', '.join(parts)}){label}"

    # -- evaluation --------------------------------------------------------------

    def _coerce_input(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.n_inputs,):
            raise ValidationError(
                f"input must have shape ({self.n_inputs},), got {u.shape}"
            )
        return u

    def rhs(self, x, u):
        """Evaluate ``f(x, u) = G1 x + G2 x⊗x + G3 x⊗x⊗x + Σ D1ᵢ x uᵢ + B u``.

        Note this is the right-hand side *before* applying ``mass^{-1}``;
        implicit integrators consume it together with :attr:`mass`.
        """
        x = np.asarray(x, dtype=float).reshape(self.n_states)
        u = self._coerce_input(u)
        f = self.g1 @ x + self.b @ u
        if self._quad is not None:
            f = f + self._quad.eval(x)
        if self._cubic is not None:
            f = f + self._cubic.eval(x)
        if self.d1 is not None:
            for d1_i, u_i in zip(self.d1, u):
                if u_i != 0.0:
                    f = f + (d1_i @ x) * u_i
        return f

    def jacobian(self, x, u):
        """State Jacobian ``∂f/∂x`` at ``(x, u)``.

        Dense systems get a dense ndarray; sparse systems (CSR ``g1``)
        get a CSR matrix assembled from the COO index arrays — the Newton
        layer factors either form without densifying.
        """
        x = np.asarray(x, dtype=float).reshape(self.n_states)
        u = self._coerce_input(u)
        if self.is_sparse:
            jac = self.g1
            if self._quad is not None:
                jac = jac + self._quad.jacobian_sparse(x)
            if self._cubic is not None:
                jac = jac + self._cubic.jacobian_sparse(x)
            if self.d1 is not None:
                for d1_i, u_i in zip(self.d1, u):
                    if u_i != 0.0:
                        jac = jac + d1_i * u_i
            if jac is self.g1:
                jac = jac.copy()
            return sp.csr_matrix(jac)
        jac = self.g1.copy()
        if self._quad is not None:
            self._quad.add_jacobian(jac, x)
        if self._cubic is not None:
            self._cubic.add_jacobian(jac, x)
        if self.d1 is not None:
            for d1_i, u_i in zip(self.d1, u):
                if u_i != 0.0:
                    jac += d1_i * u_i
        return jac

    def observe(self, states):
        """Map a state trajectory ``(n,)`` or ``(steps, n)`` to outputs."""
        states = np.asarray(states)
        if states.ndim == 1:
            return self.output @ states
        return states @ self.output.T

    # -- transformations ------------------------------------------------------------

    def to_explicit(self):
        """Fold an invertible mass matrix into the coefficients.

        Returns an equivalent system with ``mass=None`` (the paper's
        "regular system" trimming, eq. 1 → eq. 2).  Raises
        :class:`SystemStructureError` when the mass matrix is singular.

        A sparse mass matrix is factored once with a sparse LU and the
        fold keeps every sparse coefficient (``g1``, ``g2``, ``g3``,
        ``d1``) sparse: ``C^{-1}`` is applied only to the nonzero columns
        of each coefficient matrix, so a circuit-sized system never
        materializes an ``(n, n²)`` dense block.  A dense mass matrix
        takes the dense LAPACK path (densifying a sparse ``g1``/``d1`` in
        the mixed sparse-state/dense-mass corner case); ``g2``/``g3``
        still go through the same nonzero-column compaction, so a
        cubic ``g3`` of width ``n³`` is never densified.
        """
        if self.mass is None:
            return self
        if sp.issparse(self.mass):
            return self._to_explicit_sparse()
        sign, logdet = np.linalg.slogdet(self.mass)
        if sign == 0 or not np.isfinite(logdet):
            raise SystemStructureError(
                "mass matrix is singular; use repro.systems.descriptor to "
                "extract the regular part first"
            )
        lu = sla.lu_factor(self.mass)

        def solve(mat):
            if sp.issparse(mat):
                mat = mat.toarray()
            return sla.lu_solve(lu, mat)

        g2 = None if self.g2 is None else _solve_columns(solve, self.g2)
        g3 = None if self.g3 is None else _solve_columns(solve, self.g3)
        d1 = None
        if self.d1 is not None:
            d1 = [solve(mat) for mat in self.d1]
        return type(self)._from_parts(
            g1=solve(self.g1),
            b=solve(self.b),
            g2=g2,
            g3=g3,
            d1=d1,
            mass=None,
            output=self.output,
            name=self.name,
        )

    def _to_explicit_sparse(self):
        """Sparse-mass fold: ``C^{-1}`` through one sparse LU, no dense
        ``(n, n^k)`` intermediates."""
        try:
            lu = sparse_lu(self.mass)
        except NumericalError as exc:
            raise SystemStructureError(
                "mass matrix is singular; use repro.systems.descriptor to "
                "extract the regular part first"
            ) from exc

        def solve_dense(mat):
            out = lu.solve(np.asarray(mat, dtype=float))
            if not np.isfinite(out).all():
                raise SystemStructureError(
                    "mass matrix is numerically singular; use "
                    "repro.systems.descriptor to extract the regular part"
                )
            return out

        solve_columns = partial(_solve_columns, solve_dense)
        g1 = (
            solve_columns(self.g1)
            if sp.issparse(self.g1)
            else solve_dense(self.g1)
        )
        g2 = None if self.g2 is None else solve_columns(self.g2)
        g3 = None if self.g3 is None else solve_columns(self.g3)
        d1 = None
        if self.d1 is not None:
            d1 = [
                solve_columns(mat) if sp.issparse(mat) else solve_dense(mat)
                for mat in self.d1
            ]
        return type(self)._from_parts(
            g1=g1,
            b=solve_dense(self.b),
            g2=g2,
            g3=g3,
            d1=d1,
            mass=None,
            output=self.output,
            name=self.name,
        )

    @classmethod
    def _from_parts(cls, g1, b, g2, g3, d1, mass, output, name):
        """Rebuild an instance, dropping terms the subclass forbids."""
        return PolynomialODE(
            g1, b, g2=g2, g3=g3, d1=d1, mass=mass, output=output, name=name
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        """Payload-tree form (see :mod:`repro.serialize`).

        Storage classes are preserved exactly: a CSR ``g1``/``mass``/
        ``d1`` serializes as CSR and reloads as CSR (round-tripped
        circuit-scale systems stay on the sparse fast path), dense
        stays dense, and ``g2``/``g3`` stay sparse coefficient matrices.
        """
        return {
            "__class__": type(self).__name__,
            "g1": self.g1,
            "b": self.b,
            "g2": self.g2,
            "g3": self.g3,
            "d1": None if self.d1 is None else list(self.d1),
            "mass": self.mass,
            "output": self.output,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a polynomial system from :meth:`to_dict` output.

        Dispatches on the recorded class (``PolynomialODE``, ``QLDAE``,
        ``CubicODE``) so a payload round-trips to the class that wrote
        it.  Calling this on a subclass whose invariants the payload
        violates (e.g. ``CubicODE.from_dict`` on a quadratic payload)
        raises :class:`~repro.errors.SystemStructureError` through the
        subclass's own ``_from_parts`` checks.
        """
        kind = data.get("__class__", "PolynomialODE")
        target = _POLYNOMIAL_CLASSES.get(kind)
        if target is None:
            raise ValidationError(
                f"payload describes a {kind!r}, which is not a "
                "polynomial system class"
            )
        if not issubclass(target, cls):
            raise ValidationError(
                f"payload describes a {kind!r}, not a {cls.__name__}"
            )
        return target._from_parts(
            g1=data["g1"],
            b=data["b"],
            g2=data["g2"],
            g3=data["g3"],
            d1=data["d1"],
            mass=data["mass"],
            output=data["output"],
            name=data["name"],
        )

    def save(self, path):
        """Write the system to *path* as one ``.npz`` archive (atomic)."""
        return save_payload(path, self.to_dict())

    @classmethod
    def load(cls, path):
        """Load a system written by :meth:`save`."""
        return cls.from_dict(load_payload(path))

    def linear_part(self):
        """The linearization at the origin as a :class:`StateSpace`.

        Requires an explicit system (``mass is None``); call
        :meth:`to_explicit` first otherwise.
        """
        if self.mass is not None:
            raise SystemStructureError(
                "linear_part requires an explicit system; call to_explicit()"
            )
        return StateSpace(self.g1, self.b, self.output)

    def project(self, v):
        """Galerkin-project onto the orthonormal basis ``V``.

        Builds the reduced polynomial system with
        ``Ĝ1 = Vᵀ G1 V``, ``Ĝ2 = Vᵀ G2 (V ⊗ V)``,
        ``Ĝ3 = Vᵀ G3 (V ⊗ V ⊗ V)``, ``D̂1ᵢ = Vᵀ D1ᵢ V``, ``B̂ = Vᵀ B``
        and ``Ĉ = C V``; the reduction is exact on the subspace.

        When the system carries a mass matrix it is projected by the same
        congruence (``M̂ = Vᵀ M V``).  For passive MNA circuits
        (``M ≻ 0``, ``G1 + G1ᵀ ⪯ 0``) this preserves those definiteness
        properties and hence the stability of the ROM — folding the mass
        matrix first and projecting the explicit form does not.

        The nonlinear projections are accumulated term-by-term from the
        COO data (cost ``O(nnz · q³)``), never forming ``V ⊗ V``.
        """
        v = as_matrix(np.asarray(v), "v")
        n, q = v.shape
        if n != self.n_states:
            raise ValidationError(
                f"V has {n} rows, expected {self.n_states}"
            )
        g1_r = v.T @ self.g1 @ v
        b_r = v.T @ self.b
        out_r = self.output @ v

        g2_r = None
        if self._quad is not None:
            acc = np.zeros((q, q * q))
            term = self._quad
            for row, i, j, val in zip(term.rows, term.i, term.j, term.vals):
                acc += val * np.outer(v[row], np.kron(v[i], v[j]))
            g2_r = sp.csr_matrix(acc)

        g3_r = None
        if self._cubic is not None:
            acc = np.zeros((q, q * q * q))
            term = self._cubic
            for row, i, j, k, val in zip(
                term.rows, term.i, term.j, term.k, term.vals
            ):
                acc += val * np.outer(
                    v[row], np.kron(v[i], np.kron(v[j], v[k]))
                )
            g3_r = sp.csr_matrix(acc)

        d1_r = None
        if self.d1 is not None:
            d1_r = [v.T @ mat @ v for mat in self.d1]
        mass_r = None
        if self.mass is not None:
            mass_r = v.T @ self.mass @ v

        return type(self)._from_parts(
            g1=g1_r,
            b=b_r,
            g2=g2_r,
            g3=g3_r,
            d1=d1_r,
            mass=mass_r,
            output=out_r,
            name=f"{self.name}-rom" if self.name else "rom",
        )


class QLDAE(PolynomialODE):
    """Quadratic-linear (D)AE — the paper's eq. (1)/(2).

    ``C x' = G1 x + G2 (x ⊗ x) + Σᵢ D1ᵢ x uᵢ + B u``; no cubic term.
    """

    def __init__(self, g1, b, g2=None, d1=None, mass=None, output=None, name=""):
        super().__init__(
            g1, b, g2=g2, g3=None, d1=d1, mass=mass, output=output, name=name
        )

    @classmethod
    def _from_parts(cls, g1, b, g2, g3, d1, mass, output, name):
        if g3 is not None:
            raise SystemStructureError("QLDAE cannot carry a cubic term")
        return cls(g1, b, g2=g2, d1=d1, mass=mass, output=output, name=name)


class CubicODE(PolynomialODE):
    """ODE with a cubic Kronecker term — the paper's §3.4 system.

    ``C x' = G1 x + G3 (x ⊗ x ⊗ x) + B u``; note the paper writes it as
    ``C x' + G1 x + G3 x 3© = u`` (signs folded into our ``G1``, ``G3``).
    """

    def __init__(self, g1, b, g3=None, mass=None, output=None, name=""):
        super().__init__(
            g1, b, g2=None, g3=g3, d1=None, mass=mass, output=output, name=name
        )

    @classmethod
    def _from_parts(cls, g1, b, g2, g3, d1, mass, output, name):
        if g2 is not None or d1 is not None:
            raise SystemStructureError(
                "CubicODE cannot carry quadratic or bilinear terms"
            )
        return cls(g1, b, g3=g3, mass=mass, output=output, name=name)


#: Payload ``__class__`` → constructor dispatch for
#: :meth:`PolynomialODE.from_dict`.
_POLYNOMIAL_CLASSES = {
    "PolynomialODE": PolynomialODE,
    "QLDAE": QLDAE,
    "CubicODE": CubicODE,
}
