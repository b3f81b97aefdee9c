"""Dense oracle of the ``A3(H3)`` realization (tests only).

The library's one H3 algorithm (``FactoredH3Realization``) never forms
the lifted state.  This module keeps the explicit block-triangular
state matrix ``A3``, its input matrix ``B3`` and plain dense solves, at
sizes where ``n + 2nN + n³`` stays in the low thousands, as the
reference the factored path is checked against.
"""

import itertools

import numpy as np
import scipy.linalg as sla

from repro.errors import SystemStructureError, ValidationError
from repro.linalg.kronecker import kron_sum_power_matvec
from repro.volterra.associated import _h3_top_block
from repro.volterra.transfer import permutation_indices


class AssociatedH3Operator:
    """Block-triangular state matrix of the ``A3(H3)`` realization.

    State layout (present blocks only)::

        [ x_a | x_b | x_c | x_d ]
          n     n·N    N·n   n³        with N = n + n² (dim of Ã2)

    * ``x_b`` block: ``G1 ⊕ Ã2``  (from ``H1(sᵢ) ⊗ H2(sⱼ, s_k)``)
    * ``x_c`` block: ``Ã2 ⊕ G1``  (from ``H2(sⱼ, s_k) ⊗ H1(sᵢ)``)
    * ``x_d`` block: ``G1 ⊕ G1 ⊕ G1`` (from the cubic ``G3`` term)

    The top row couples through ``G2 (I ⊗ c̃2)``, ``G2 (c̃2 ⊗ I)`` and
    ``G3``.  Shifted solves are dense LU solves of :meth:`dense`.
    """

    def __init__(self, workspace):
        self.workspace = workspace
        system = workspace.system
        self.n = workspace.n
        self.has_quad = system.g2 is not None
        self.has_cubic = system.g3 is not None
        if not (self.has_quad or self.has_cubic):
            raise SystemStructureError(
                "system has neither quadratic nor cubic terms; H3 ≡ 0"
            )
        n = self.n
        self.dim_b = self.dim_c = self.dim_d = 0
        if self.has_quad:
            self.a2_op = workspace.a2_operator
            self.n2 = self.a2_op.dim  # N = n + n²
            self.dim_b = n * self.n2
            self.dim_c = self.n2 * n
        if self.has_cubic:
            self.dim_d = n**3
        self.shape = (n + self.dim_b + self.dim_c + self.dim_d,) * 2
        self._dense = None

    @property
    def dim(self):
        return self.shape[0]

    def split(self, x):
        """``[x_a, x_b, x_c, x_d]`` views of a lifted vector."""
        x = np.asarray(x).reshape(self.dim)
        parts = [x[: self.n]]
        offset = self.n
        for size in (self.dim_b, self.dim_c, self.dim_d):
            parts.append(x[offset : offset + size])
            offset += size
        return parts

    def _couple_top(self, x_b, x_c, x_d):
        """``G2 (I ⊗ c̃2) x_b + G2 (c̃2 ⊗ I) x_c + G3 x_d``."""
        system = self.workspace.system
        n = self.n
        out = np.zeros(n, dtype=complex)
        if self.has_quad:
            out += system.g2 @ x_b.reshape(n, self.n2)[:, :n].reshape(-1)
            out += system.g2 @ x_c.reshape(self.n2, n)[:n, :].reshape(-1)
        if self.has_cubic:
            out += system.g3 @ x_d
        return out

    def matvec(self, x):
        g1 = self.workspace.system.g1
        x_a, x_b, x_c, x_d = self.split(np.asarray(x, dtype=complex))
        pieces = [g1 @ x_a + self._couple_top(x_b, x_c, x_d)]
        if self.has_quad:
            n, n2 = self.n, self.n2
            xb_mat = x_b.reshape(n, n2)
            # (G1 ⊕ Ã2) vec(X) = vec(G1 X + X Ã2ᵀ)
            rows = np.stack([self.a2_op.matvec(xb_mat[i]) for i in range(n)])
            pieces.append((g1 @ xb_mat + rows).reshape(-1))
            xc_mat = x_c.reshape(n2, n)
            cols = np.stack(
                [self.a2_op.matvec(xc_mat[:, j]) for j in range(n)], axis=1
            )
            pieces.append((cols + xc_mat @ g1.T).reshape(-1))
        if self.has_cubic:
            pieces.append(kron_sum_power_matvec(g1, 3, x_d))
        return np.concatenate(pieces)

    def dense(self):
        """Materialize ``A3``."""
        if self.dim > 4096:
            raise ValidationError(
                f"refusing to densify a {self.dim}-dimensional H3 operator"
            )
        if self._dense is not None:
            return self._dense
        ws = self.workspace
        g1 = ws._g1_dense()
        n = self.n
        top, diag = [], []
        if self.has_quad:
            a2 = self.a2_op.dense()
            n2 = self.n2
            c2 = np.zeros((n, n2))
            c2[:, :n] = np.eye(n)
            g2 = ws.system.g2.toarray()
            top.append(g2 @ np.kron(np.eye(n), c2))
            top.append(g2 @ np.kron(c2, np.eye(n)))
            diag.append(np.kron(g1, np.eye(n2)) + np.kron(np.eye(n), a2))
            diag.append(np.kron(a2, np.eye(n)) + np.kron(np.eye(n2), g1))
        if self.has_cubic:
            top.append(ws.system.g3.toarray())
            eye = np.eye(n)
            diag.append(
                np.kron(np.kron(g1, eye), eye)
                + np.kron(np.kron(eye, g1), eye)
                + np.kron(np.kron(eye, eye), g1)
            )
        out = np.zeros(self.shape)
        out[:n, :n] = g1
        col = n
        for block in top:
            out[:n, col : col + block.shape[1]] = block
            col += block.shape[1]
        row = n
        for mat in diag:
            size = mat.shape[0]
            out[row : row + size, row : row + size] = mat
            row += size
        self._dense = out
        return out

    def solve_shifted(self, shift, rhs):
        """Dense solve of ``(A3 + shift I) x = rhs``."""
        return np.linalg.solve(
            self.dense() + shift * np.eye(self.dim),
            np.asarray(rhs, dtype=complex),
        )


def h3_input_matrix(workspace, op):
    """Assemble the dense ``B3`` input matrix of the ``A3(H3)``
    realization."""
    system = workspace.system
    m = workspace.m
    b = system.b
    pieces = [_h3_top_block(workspace)]

    def _perm_sum(mat, perms):
        """``mat @ Σ_perms P`` via column indexing."""
        acc = mat[:, permutation_indices(m, perms[0])]
        for perm in perms[1:]:
            acc += mat[:, permutation_indices(m, perm)]
        return acc

    if op.has_quad:
        b2 = workspace.b2_tilde()
        # Left block: (1/3)(B ⊗ b̃2) Σᵢ P_(i,j,k);  i is the H1 slot.
        pieces.append(
            _perm_sum(np.kron(b, b2), ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
            / 3.0
        )
        # Right block: (1/3)(b̃2 ⊗ B) Σᵢ P_(j,k,i).
        pieces.append(
            _perm_sum(np.kron(b2, b), ((1, 2, 0), (0, 2, 1), (0, 1, 2)))
            / 3.0
        )
    if op.has_cubic:
        bbb = np.kron(b, np.kron(b, b))
        pieces.append(
            _perm_sum(bbb, tuple(itertools.permutations(range(3)))) / 6.0
        )
    return np.vstack(pieces)


class DenseH3Oracle:
    """``A3``, ``B3`` and dense ``H3`` evaluations of one workspace."""

    def __init__(self, workspace):
        self.op = AssociatedH3Operator(workspace)
        self.b = h3_input_matrix(workspace, self.op)
        self.n = workspace.n

    def eval(self, s):
        """``H3(s) = C (sI − A3)^{-1} B3`` — ``(n, m³)``."""
        a = self.op.dense()
        return np.linalg.solve(s * np.eye(self.op.dim) - a, self.b)[: self.n]

    def moment_vectors(self, count, s0=0.0):
        """Projected shift-invert chains, every column, in moment order
        per column (the layout of ``moment_vectors(deduplicate=False)``)."""
        out = []
        for col in range(self.b.shape[1]):
            current = self.b[:, col].astype(complex)
            for _ in range(count):
                current = self.op.solve_shifted(-s0, current)
                out.append(current[: self.n])
        return np.column_stack(out)

    def impulse_response(self, times):
        """Diagonal kernel ``h3(t)`` via dense ``expm``."""
        a = self.op.dense()
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((times.size, self.n, self.b.shape[1]))
        for idx, t in enumerate(times):
            out[idx] = (sla.expm(a * t) @ self.b)[: self.n]
        return out
