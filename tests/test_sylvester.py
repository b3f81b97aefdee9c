"""Unit tests for Sylvester / Kronecker-sum solvers (paper §2.3)."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.errors import NumericalError, ValidationError
from repro.linalg import (
    KronSumSolver,
    ResolventFactory,
    SchurForm,
    kron_sum_power,
    kron_sum_power_matvec,
    mode_apply,
    pi_sylvester_residual,
    solve_pi_sylvester,
    triangular_sylvester_solve,
)
from repro.circuits import quadratic_rc_ladder_netlist
from repro.linalg import LowRankKronSolver, sylvester
from repro.linalg.sylvester import _SYLVESTER_BLOCK, FactoredTensor


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def g1(rng):
    return -1.5 * np.eye(6) + 0.35 * rng.standard_normal((6, 6))


def dense_kron_sum(a, k):
    mat = kron_sum_power(a, k)
    return mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)


class TestTriangularKernels:
    def test_forward_kernel(self, rng):
        t = np.triu(rng.standard_normal((5, 5)) + 2j * np.eye(5))
        w = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        alpha = 0.6
        y = triangular_sylvester_solve(t, alpha, w)
        assert np.allclose(t @ y + y @ t.T + alpha * y, w)

    def test_singular_pairing_raises(self, rng):
        t = np.diag([1.0 + 0j, -1.0 + 0j])
        # lambda_0 + lambda_1 + 0 = 0 -> singular
        with pytest.raises(NumericalError):
            triangular_sylvester_solve(t, 0.0, np.ones((2, 2), complex))


class TestKronSumSolver:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solve_matches_dense(self, g1, rng, k):
        solver = KronSumSolver(g1)
        rhs = rng.standard_normal(6**k)
        x = solver.solve(rhs, k=k, shift=0.8)
        dense = dense_kron_sum(g1, k) + 0.8 * np.eye(6**k)
        assert np.allclose(dense @ x, rhs, atol=1e-9)

    def test_complex_shift(self, g1, rng):
        solver = KronSumSolver(g1)
        rhs = rng.standard_normal(36)
        shift = -0.2 + 0.9j
        x = solver.solve(rhs, k=2, shift=shift)
        dense = dense_kron_sum(g1, 2).astype(complex) + shift * np.eye(36)
        assert np.allclose(dense @ x, rhs, atol=1e-9)

    def test_solve_real_returns_real(self, g1, rng):
        solver = KronSumSolver(g1)
        x = solver.solve_real(rng.standard_normal(36), k=2)
        assert x.dtype.kind == "f"

    def test_wrong_rhs_size(self, g1):
        solver = KronSumSolver(g1)
        with pytest.raises(ValidationError):
            solver.solve(np.zeros(10), k=2)

    def test_invalid_k(self, g1):
        solver = KronSumSolver(g1)
        with pytest.raises(ValidationError):
            solver.solve(np.zeros(6**4), k=4)

    def test_shared_schur(self, g1):
        schur = SchurForm(g1)
        solver = KronSumSolver(g1, schur=schur)
        assert solver.schur is schur

    def test_singular_spectrum_raises(self):
        # A with eigenvalues ±1: pairing (+1) + (−1) = 0 at zero shift.
        a = np.diag([1.0, -1.0])
        solver = KronSumSolver(a)
        with pytest.raises(NumericalError):
            solver.solve(np.ones(4), k=2, shift=0.0)


class TestPiSylvester:
    def test_residual_small(self, g1, rng):
        g2 = 0.3 * rng.standard_normal((6, 36))
        pi = solve_pi_sylvester(g1, g2)
        assert pi.shape == (6, 36)
        assert pi_sylvester_residual(g1, g2, pi) < 1e-9

    def test_defining_equation_dense(self, g1, rng):
        g2 = 0.3 * rng.standard_normal((6, 36))
        pi = solve_pi_sylvester(g1, g2)
        ks = dense_kron_sum(g1, 2)
        assert np.allclose(g1 @ pi + g2, pi @ ks, atol=1e-9)

    def test_reuses_solver(self, g1, rng):
        g2 = 0.3 * rng.standard_normal((6, 36))
        solver = KronSumSolver(g1)
        pi = solve_pi_sylvester(g1, g2, solver=solver)
        assert pi_sylvester_residual(g1, g2, pi) < 1e-9

    def test_shape_validation(self, g1):
        with pytest.raises(ValidationError):
            solve_pi_sylvester(g1, np.zeros((6, 10)))

    def test_unstable_spectrum_raises(self, rng):
        # Eigenvalue condition lambda_i = lambda_j + lambda_k violated:
        # a has eigenvalues {2, 1, 1}; 2 = 1 + 1.
        a = np.diag([2.0, 1.0, 1.0])
        with pytest.raises(NumericalError):
            solve_pi_sylvester(a, np.ones((3, 9)))


# -- the dense sweeps across block boundaries ---------------------------------
#
# Oracles: the sweeps as written against ``scipy.linalg.solve_triangular``
# (same blocking, same summation grouping, one checked call per column).
# The library's sweeps call LAPACK ``ztrtrs`` directly in the same
# layout, so they must agree with these bit for bit.


def _oracle_forward(t, alpha, w):
    n, m = w.shape
    diag = np.diag(t)
    y = np.empty((n, m), dtype=complex)
    shifted = t.astype(complex, copy=True)
    for hi in range(m, 0, -_SYLVESTER_BLOCK):
        lo = max(0, hi - _SYLVESTER_BLOCK)
        rhs_block = np.ascontiguousarray(w[:, lo:hi], dtype=complex)
        if hi < m:
            rhs_block -= y[:, hi:] @ t[lo:hi, hi:m].T
        for j in range(hi - 1, lo - 1, -1):
            rhs = rhs_block[:, j - lo]
            if j + 1 < hi:
                rhs = rhs - y[:, j + 1 : hi] @ t[j, j + 1 : hi]
            np.fill_diagonal(shifted, diag + (t[j, j] + alpha))
            y[:, j] = sla.solve_triangular(shifted, rhs, lower=False)
    return y


def _oracle_pi(schur, g2):
    n = schur.n
    t, q = schur.t, schur.q
    diag = np.diag(t)
    c = np.asarray(-g2).reshape(n, n, n).astype(complex)
    c = mode_apply(c, q.conj().T, 0)
    c = mode_apply(c, q.T, 1)
    c = mode_apply(c, q.T, 2)
    y = np.empty((n, n, n), dtype=complex)
    shifted = t.astype(complex, copy=True)
    for k in range(n):
        for j in range(n):
            rhs = c[:, j, k].copy()
            if j > 0:
                rhs += y[:, :j, k] @ t[:j, j]
            if k > 0:
                rhs += y[:, j, :k] @ t[:k, k]
            np.fill_diagonal(shifted, diag - (t[j, j] + t[k, k]))
            y[:, j, k] = sla.solve_triangular(shifted, rhs, lower=False)
    y = mode_apply(y, q, 0)
    y = mode_apply(y, q.conj(), 1)
    y = mode_apply(y, q.conj(), 2)
    return y.reshape(n, n * n)


def _triangular_case(n, order, seed=7):
    """A well-conditioned complex upper-triangular T and a dense W."""
    rng = np.random.default_rng(seed + n)
    off = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    diag = -1.0 - rng.random(n) + 1j * rng.standard_normal(n)
    t = np.triu(off, k=1) / np.sqrt(n) + np.diag(diag)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.array(t, order=order), w


class TestSweepsAcrossBlocks:
    ALPHA = 0.3 - 0.2j

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_forward_sweep(self, n, order):
        t, w = _triangular_case(n, order)
        y = triangular_sylvester_solve(t, self.ALPHA, w)
        assert np.array_equal(y, _oracle_forward(t, self.ALPHA, w))
        residual = t @ y + y @ t.T + self.ALPHA * y - w
        assert np.abs(residual).max() < 1e-12 * np.abs(w).max() * n

    def test_dense_pi_matches_oracle(self):
        rng = np.random.default_rng(20)
        n = 20
        g1 = -2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
        g2 = rng.standard_normal((n, n * n))
        solver = KronSumSolver(g1)
        pi = solve_pi_sylvester(g1, g2, solver=solver)
        oracle = _oracle_pi(solver.schur, g2)
        assert np.array_equal(pi, np.ascontiguousarray(oracle.real))
        assert pi_sylvester_residual(g1, g2, pi) < 1e-9

    def test_three_way_residual_at_65(self):
        rng = np.random.default_rng(65)
        n = 65
        a = -2.0 * np.eye(n) + 0.2 * rng.standard_normal((n, n))
        rhs = rng.standard_normal(n**3)
        shift = 0.4 + 0.1j
        x = KronSumSolver(a).solve(rhs, k=3, shift=shift)
        residual = kron_sum_power_matvec(a, 3, x) + shift * x - rhs
        assert np.abs(residual).max() < 1e-10 * np.abs(rhs).max()

    def test_three_way_refuses_before_any_slab(self, monkeypatch):
        n = 65
        # λ_k = −1 − k/n and shift = −3·λ_1: the pairings with
        # i + j + r = 3 vanish, so only the lowest slabs are singular and
        # a check made slab by slab would solve slab n − 1 first.
        eig = -1.0 - np.arange(n) / n
        shift = -3.0 * eig[1]
        solver = KronSumSolver(np.diag(eig))
        special = int(np.argmin(np.abs(solver.schur.eigenvalues - eig[1])))
        assert special < n - 1  # a lazy check would solve slab n-1 first
        slabs = []
        real = sylvester._sylvester_sweep
        monkeypatch.setattr(
            sylvester,
            "_sylvester_sweep",
            lambda *args: slabs.append(1) or real(*args),
        )
        with pytest.raises(NumericalError):
            solver.solve(np.ones(n**3), k=3, shift=shift)
        assert slabs == []

    def test_no_dense_sweep_calls_scipy_solve_triangular(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg.solve_triangular was called")

        monkeypatch.setattr(sla, "solve_triangular", forbidden)
        t, w = _triangular_case(65, "F")
        triangular_sylvester_solve(t, 0.5, w)
        rng = np.random.default_rng(3)
        n = 8
        g1 = -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
        solver = KronSumSolver(g1)
        for k in (1, 2, 3):
            solver.solve(rng.standard_normal(n**k), k=k, shift=0.2)
        SchurForm(g1).solve_shifted_transpose(0.2, rng.standard_normal(n))
        solve_pi_sylvester(g1, rng.standard_normal((n, n * n)), solver=solver)
        ResolventFactory(g1).solve(0.5j, rng.standard_normal(n))

    def test_no_sweep_rewrites_the_diagonal_with_fill_diagonal(
        self, monkeypatch
    ):
        # Every shifted work matrix takes its diagonal through one strided
        # view; the results are pinned bit for bit by the oracle tests
        # above, which still use np.fill_diagonal themselves.
        def forbidden(*args, **kwargs):
            raise AssertionError("np.fill_diagonal was called")

        rng = np.random.default_rng(5)
        n = 8
        g1 = -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
        ladder = (
            quadratic_rc_ladder_netlist(
                30, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
            )
            .compile(sparse=True)
            .to_explicit()
        )
        factory = ResolventFactory.for_system(ladder)
        left_solves = []
        real_left = LowRankKronSolver._pi_left_solve
        monkeypatch.setattr(
            LowRankKronSolver, "_pi_left_solve",
            lambda *args: left_solves.append(1) or real_left(*args),
        )
        monkeypatch.setattr(np, "fill_diagonal", forbidden)
        for order in ("C", "F"):
            t, w = _triangular_case(65, order)
            triangular_sylvester_solve(t, 0.5, w)
        solver = KronSumSolver(g1)
        for k in (1, 2, 3):
            solver.solve(rng.standard_normal(n**k), k=k, shift=0.2)
        SchurForm(g1).solve_shifted(0.3j, rng.standard_normal(n))
        SchurForm(g1).solve_shifted_transpose(0.3j, rng.standard_normal(n))
        solve_pi_sylvester(g1, rng.standard_normal((n, n * n)), solver=solver)
        dense = ResolventFactory(g1)
        dense.solve(0.5j, rng.standard_normal(n))
        dense.solve_many([0.1j, 0.2j], rng.standard_normal(n))
        dense.solve_columns([0.1j, 0.2j], rng.standard_normal((n, 2)))
        LowRankKronSolver(
            ladder.g1,
            lambda shift, rhs: -factory.solve(-shift, rhs),
            lambda shift, rhs: -factory.solve_transpose(-shift, rhs),
        ).solve_pi(ladder.g2, tol=1e-9)
        assert left_solves  # the Π left solve ran under the patch too


class TestFactoredKronSolve:
    """KronSumSolver's FactoredTensor entry: exact, on the Schur basis."""

    SHIFT = 0.3 - 0.2j

    @staticmethod
    def _case(n, seed=4):
        rng = np.random.default_rng(seed)
        a = -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
        return KronSumSolver(a), rng

    @staticmethod
    def _rel(x, ref):
        return np.abs(x - ref).max() / np.abs(ref).max()

    @pytest.mark.parametrize("n", [9, 70])
    def test_pair_symmetric_matches_flat(self, n):
        solver, rng = self._case(n)
        u, v, w = rng.standard_normal((3, n))
        pair = np.column_stack([v, w])
        core = np.array([[[0.0, 0.5], [0.5, 0.0]]])
        seed = FactoredTensor(core, [u[:, None], pair, pair])
        out = solver.solve(seed, k=3, shift=self.SHIFT)
        flat = solver.solve(seed.to_vector(), k=3, shift=self.SHIFT)
        assert self._rel(out.to_vector(), flat) <= 1e-13
        assert all(f is solver.schur.q for f in out.factors)
        assert np.array_equal(out.core, out.core.transpose(0, 2, 1))
        # A chain step on a Schur-basis output transforms nothing.
        again = solver.solve(out, k=3, shift=self.SHIFT)
        ref = solver.solve(flat, k=3, shift=self.SHIFT)
        assert self._rel(again.to_vector(), ref) <= 1e-13
        assert np.array_equal(again.core, again.core.transpose(0, 2, 1))

    def test_fully_symmetric_dense_core(self):
        n = 12
        solver, rng = self._case(n, seed=8)
        c = rng.standard_normal((n, n, n))
        c = sum(c.transpose(p) for p in
                ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                 (2, 1, 0)))
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        seed = FactoredTensor(c, [basis] * 3)
        out = solver.solve(seed, k=3, shift=0.4)
        flat = solver.solve(seed.to_vector(), k=3, shift=0.4)
        assert self._rel(out.to_vector(), flat) <= 1e-13

    def test_asymmetric_rhs_refused(self):
        solver, rng = self._case(9)
        u, v, w = rng.standard_normal((3, 9))
        with pytest.raises(ValidationError, match="symmetric"):
            solver.solve(FactoredTensor.rank_one([u, v, w]), k=3)

    def test_two_way_matches_flat(self):
        solver, rng = self._case(9)
        seed = FactoredTensor(
            rng.standard_normal((2, 3)),
            [rng.standard_normal((9, 2)), rng.standard_normal((9, 3))],
        )
        out = solver.solve(seed, k=2, shift=self.SHIFT)
        flat = solver.solve(seed.to_vector(), k=2, shift=self.SHIFT)
        assert self._rel(out.to_vector(), flat) <= 1e-13
        assert all(f is solver.schur.q for f in out.factors)

    def test_shape_and_order_checks(self):
        solver, rng = self._case(9)
        with pytest.raises(ValidationError):
            solver.solve(FactoredTensor.rank_one(rng.standard_normal((2, 8))))
        with pytest.raises(ValidationError):
            solver.solve(
                FactoredTensor.rank_one(rng.standard_normal((2, 9))), k=3
            )

    def test_refuses_before_any_slab(self, monkeypatch):
        n = 65
        eig = -1.0 - np.arange(n) / n
        solver = KronSumSolver(np.diag(eig))
        slabs = []
        real = sylvester._sylvester_sweep
        monkeypatch.setattr(
            sylvester,
            "_sylvester_sweep",
            lambda *args: slabs.append(1) or real(*args),
        )
        ones = FactoredTensor.rank_one([np.ones(n)] * 3)
        with pytest.raises(NumericalError):
            solver.solve(ones, k=3, shift=-3.0 * eig[1])
        assert slabs == []


# ---------------------------------------------------------------------------
# orthogonality of the growing Krylov bases
# ---------------------------------------------------------------------------


class TestBasisOrthogonality:
    """A block whose kept remainder is small is not orthogonal to ``U``
    after two classical Gram–Schmidt passes; ``absorb`` gives it two
    more and a QR.  All-quad ladders (a quadratic conductance on every
    node) produce such blocks and, without them, stall the shared
    Kronecker-sum basis at its cap with ‖UᴴU − I‖ near 1e-7."""

    def test_nearly_dependent_block_is_reorthogonalized(self, rng):
        n = 200
        stats = {"reorthogonalizations": 0}
        basis = sylvester._KrylovBasis(np.eye(n), 40, stats)
        u0 = np.linalg.qr(rng.standard_normal((n, 20)))[0]
        basis.absorb(u0)
        near = u0 @ rng.standard_normal((20, 4))
        assert basis.absorb(near + 1e-7 * rng.standard_normal((n, 4)))
        assert stats["reorthogonalizations"] == 1
        assert basis.absorb(rng.standard_normal((n, 3)))
        assert stats["reorthogonalizations"] == 1  # separated: untouched
        u = basis.u
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[1]), 2) <= 1e-13

    def test_basis_without_transpose_side_matches(self, rng):
        g1 = rng.standard_normal((30, 30))
        stats = {"reorthogonalizations": 0}
        both = sylvester._KrylovBasis(g1, 10, stats, transpose=True)
        plain = sylvester._KrylovBasis(g1, 10, stats)
        for block in (rng.standard_normal((30, 3)), rng.standard_normal(30)):
            both.absorb(block)
            plain.absorb(block)
        assert plain.atu is None
        assert np.array_equal(plain.u, both.u)
        assert np.array_equal(plain.gram_plain(), both.gram_plain())

    @pytest.mark.parametrize(
        "n, strategy, order",
        [(128, "coupled", 6), (256, "coupled", 6), (128, "decoupled", 8)],
    )
    def test_all_quad_ladder_reduces_on_an_orthonormal_basis(
        self, n, strategy, order
    ):
        from repro.mor import AssociatedTransformMOR

        system = quadratic_rc_ladder_netlist(n).compile(sparse=True)
        rom = AssociatedTransformMOR(
            orders=(3, 2, 1), strategy=strategy
        ).reduce(system)
        assert rom.order == order
        u = system._associated_workspace.lowrank_kron.basis_columns()
        gap = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]), 2)
        assert gap <= 1e-12
