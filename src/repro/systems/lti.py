"""Linear time-invariant state-space systems.

The associated transform maps every high-order Volterra transfer function
to an LTI system, so a solid LTI substrate is required: transfer-function
evaluation, impulse responses, moments, Gramians and Hankel singular
values (used by the paper's §4 remark on automatic order selection).
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .._validation import as_matrix, as_square_matrix
from ..errors import SystemStructureError, ValidationError
from ..linalg.resolvent import ResolventFactory
from ..serialize import load_payload, save_payload

__all__ = ["StateSpace"]


class StateSpace:
    """LTI system ``x' = A x + B u``, ``y = C x + D u``.

    Parameters
    ----------
    a : (n, n) array_like or sparse
        State matrix.  Scipy sparse input is kept as CSR: resolvent-type
        evaluations (``transfer``, ``frequency_response``, ``moments``)
        then run through sparse LU factorizations.  Spectral operations
        (``poles``, Gramians, ``impulse_response``) densify internally —
        they are inherently dense algorithms.
    b : (n, m) array_like
        Vectors are treated as single-input columns.
    c : (p, n) array_like, optional
        Defaults to observing the full state (``C = I``).
    d : (p, m) array_like, optional
        Defaults to zero feedthrough.
    """

    def __init__(self, a, b, c=None, d=None):
        self.a = as_square_matrix(a, "a", allow_sparse=True)
        n = self.a.shape[0]
        b = np.asarray(b)
        if b.ndim == 1:
            b = b[:, None]
        self.b = as_matrix(b, "b")
        if self.b.shape[0] != n:
            raise SystemStructureError(
                f"B has {self.b.shape[0]} rows, expected {n}"
            )
        if c is None:
            c = np.eye(n)
        c = np.asarray(c)
        if c.ndim == 1:
            c = c[None, :]
        self.c = as_matrix(c, "c")
        if self.c.shape[1] != n:
            raise SystemStructureError(
                f"C has {self.c.shape[1]} columns, expected {n}"
            )
        if d is None:
            d = np.zeros((self.c.shape[0], self.b.shape[1]))
        d = np.asarray(d, dtype=float)
        if d.ndim == 0:
            d = d.reshape(1, 1) * np.ones((self.n_outputs, self.n_inputs))
        self.d = as_matrix(d, "d")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise SystemStructureError(
                f"D has shape {self.d.shape}, expected "
                f"({self.c.shape[0]}, {self.b.shape[1]})"
            )

    # -- basic properties ----------------------------------------------------

    @property
    def n_states(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.c.shape[0]

    def __repr__(self):
        return (
            f"StateSpace(n_states={self.n_states}, "
            f"n_inputs={self.n_inputs}, n_outputs={self.n_outputs})"
        )

    def _a_dense(self):
        """Dense view of ``A`` for the inherently dense algorithms."""
        return self.a.toarray() if sp.issparse(self.a) else self.a

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        """Payload-tree form (see :mod:`repro.serialize`).

        ``A`` keeps its storage class: a CSR state matrix serializes as
        CSR and reloads as CSR, so a round-tripped sparse system stays
        on the sparse fast path.
        """
        return {
            "__class__": type(self).__name__,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a :class:`StateSpace` from :meth:`to_dict` output."""
        kind = data.get("__class__", "StateSpace")
        if kind != "StateSpace":
            raise ValidationError(
                f"payload describes a {kind!r}, not a StateSpace"
            )
        return cls(data["a"], data["b"], c=data["c"], d=data["d"])

    def save(self, path):
        """Write the system to *path* as one ``.npz`` archive (atomic)."""
        return save_payload(path, self.to_dict())

    @classmethod
    def load(cls, path):
        """Load a system written by :meth:`save`."""
        return cls.from_dict(load_payload(path))

    def poles(self):
        """Eigenvalues of ``A``."""
        return np.linalg.eigvals(self._a_dense())

    def is_stable(self, margin=0.0):
        """True when all poles have real part < -margin."""
        return bool(np.all(self.poles().real < -margin))

    # -- responses ------------------------------------------------------------

    def transfer(self, s):
        """Evaluate ``H(s) = C (sI − A)^{-1} B + D`` at one complex point.

        Sparse systems route through the cached
        :class:`ResolventFactory` (one sparse LU per distinct shift,
        LRU-reused across calls); dense systems use a direct solve.
        """
        n = self.n_states
        if sp.issparse(self.a):
            resolvent = ResolventFactory.for_system(self).solve(s, self.b)
        else:
            resolvent = np.linalg.solve(
                s * np.eye(n) - self.a.astype(complex),
                self.b.astype(complex),
            )
        return self.c @ resolvent + self.d

    def frequency_response(self, omegas):
        """Evaluate ``H(jw)`` on an array of angular frequencies.

        Returns an array of shape ``(len(omegas), p, m)``.  The whole
        grid is evaluated in one batch through the system's cached
        :class:`ResolventFactory` (one factorization of ``A``, one
        triangular substitution per frequency for dense systems, one
        cached sparse LU per frequency for sparse ones) rather than a
        fresh dense solve per point; repeated calls reuse the
        factorization.

        ``omegas`` must be **real** angular frequencies — the response is
        evaluated at ``s = jω``.  Complex input (scalar or array) raises
        :class:`~repro.errors.ValidationError`; evaluate :meth:`transfer`
        for general complex ``s``.
        """
        omegas = np.atleast_1d(np.asarray(omegas))
        if omegas.dtype.kind == "c":
            if np.any(omegas.imag != 0.0):
                raise ValidationError(
                    "frequency_response expects real angular frequencies "
                    "(evaluated at s = j*omega) and would silently drop "
                    "the imaginary part; use transfer(s) for general "
                    "complex s"
                )
            omegas = omegas.real
        elif omegas.dtype.kind not in "fiub":
            raise ValidationError(
                f"omegas must be real numbers, got dtype={omegas.dtype}"
            )
        omegas = omegas.astype(float, copy=False)
        factory = ResolventFactory.for_system(self)
        kernels = factory.solve_many(1j * omegas, self.b)
        out = np.einsum("pn,knm->kpm", self.c.astype(complex), kernels)
        return out + self.d[None, :, :]

    def impulse_response(self, times):
        """Impulse response ``h(t) = C e^{At} B`` (+ D δ omitted).

        Uses one matrix exponential per step via scaling of a single
        eigendecomposition-free ``expm`` on ``A·dt`` when *times* is
        uniformly spaced, otherwise a per-sample ``expm``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((times.size, self.n_outputs, self.n_inputs))
        a = self._a_dense()
        diffs = np.diff(times)
        uniform = times.size > 2 and np.allclose(diffs, diffs[0])
        if uniform and times[0] >= 0.0:
            step = sla.expm(a * diffs[0])
            state = sla.expm(a * times[0]) @ self.b
            for idx in range(times.size):
                out[idx] = self.c @ state
                state = step @ state
        else:
            for idx, t in enumerate(times):
                out[idx] = self.c @ sla.expm(a * t) @ self.b
        return out

    # -- moments ---------------------------------------------------------------

    def moments(self, count, s0=0.0):
        """Taylor moments of the transfer function about ``s0``.

        ``H(s) = Σ_k m_k (s − s0)^k`` with
        ``m_k = (-1)^k C (s0 I − A)^{-(k+1)} B``; requires ``s0`` off the
        spectrum of ``A``.
        """
        n = self.n_states
        if sp.issparse(self.a):
            factory = ResolventFactory.for_system(self)
            # Match the dense path's dtype rule exactly: only the
            # all-real DC expansion yields float64 moments (the factory
            # computes in complex; the imaginary parts are exactly zero
            # there).
            real_case = (
                s0 == 0.0
                and self.a.dtype.kind != "c"
                and not np.iscomplexobj(self.b)
            )

            def solve(mat):
                # The factory's per-shift LU cache makes the repeated
                # solves at s0 one factorization total.
                out = factory.solve(s0, mat)
                return out.real if real_case else out

            current = self.b.astype(float if real_case else complex)
        else:
            base = s0 * np.eye(n) - self.a
            if s0 == 0.0 and not np.iscomplexobj(base):
                lu = sla.lu_factor(base)
            else:
                lu = sla.lu_factor(base.astype(complex))

            def solve(mat):
                return sla.lu_solve(lu, mat)

            current = self.b.astype(lu[0].dtype)
        moments = []
        for k in range(count):
            current = solve(current)
            moments.append(((-1.0) ** k) * (self.c @ current))
        return moments

    # -- Gramians / Hankel values ------------------------------------------------

    def controllability_gramian(self):
        """Solve ``A P + P Aᵀ + B Bᵀ = 0`` (requires stable ``A``)."""
        if not self.is_stable():
            raise SystemStructureError(
                "controllability Gramian requires a Hurwitz A"
            )
        return sla.solve_continuous_lyapunov(
            self._a_dense(), -self.b @ self.b.T
        )

    def observability_gramian(self):
        """Solve ``Aᵀ Q + Q A + Cᵀ C = 0`` (requires stable ``A``)."""
        if not self.is_stable():
            raise SystemStructureError(
                "observability Gramian requires a Hurwitz A"
            )
        return sla.solve_continuous_lyapunov(
            self._a_dense().T, -self.c.T @ self.c
        )

    def hankel_singular_values(self):
        """Hankel singular values ``sqrt(lambda_i(P Q))``, descending.

        The paper (§4, first bullet) proposes these as the principled
        criterion for choosing how many moments of each associated
        transfer function to match.
        """
        p = self.controllability_gramian()
        q = self.observability_gramian()
        eigs = np.linalg.eigvals(p @ q)
        eigs = np.where(eigs.real > 0.0, eigs.real, 0.0)
        return np.sort(np.sqrt(eigs))[::-1]

    # -- transformations -----------------------------------------------------------

    def project(self, v, w=None):
        """Galerkin (or Petrov-Galerkin) projection onto ``span(V)``.

        Returns the reduced :class:`StateSpace`
        ``(Wᵀ A V, Wᵀ B, C V, D)`` with ``W = V`` by default; ``V`` is
        assumed orthonormal when ``W`` is omitted.
        """
        v = as_matrix(np.asarray(v), "v")
        if v.shape[0] != self.n_states:
            raise ValidationError(
                f"V has {v.shape[0]} rows, expected {self.n_states}"
            )
        w = v if w is None else as_matrix(np.asarray(w), "w")
        return StateSpace(
            w.T @ self.a @ v, w.T @ self.b, self.c @ v, self.d
        )

    def series(self, other):
        """Cascade: the output of *self* feeds the input of *other*."""
        if other.n_inputs != self.n_outputs:
            raise SystemStructureError(
                "cascade dimension mismatch: "
                f"{self.n_outputs} outputs into {other.n_inputs} inputs"
            )
        n1, n2 = self.n_states, other.n_states
        a = np.block(
            [
                [self._a_dense(), np.zeros((n1, n2))],
                [other.b @ self.c, other._a_dense()],
            ]
        )
        b = np.vstack([self.b, other.b @ self.d])
        c = np.hstack([other.d @ self.c, other.c])
        d = other.d @ self.d
        return StateSpace(a, b, c, d)
