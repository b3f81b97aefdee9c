"""Tests for the associated-transform realizations — the paper's core."""

import numpy as np
import pytest
import scipy.sparse as sp

from h3_oracle import DenseH3Oracle
from repro.circuits.examples import varistor_surge_protector
from repro.errors import SystemStructureError, ValidationError
from repro.linalg import kron_sum_power
from repro.systems import CubicODE, PolynomialODE, QLDAE, StateSpace
from repro.volterra import (
    AssociatedWorkspace,
    associated_h1,
    associated_h2,
    associated_h2_decoupled,
    associated_h3,
    volterra_series_response,
)


@pytest.fixture
def rng():
    return np.random.default_rng(91)


def dense(mat):
    return mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)


class TestEq17Realization:
    """Paper eq. (17): A2(H2) as [[G1, G2],[0, G1⊕G1]] etc."""

    def test_state_matrix_blocks(self, small_qldae):
        ws = AssociatedWorkspace(small_qldae)
        r2 = associated_h2(small_qldae, ws)
        a2 = r2.operator.dense()
        n = small_qldae.n_states
        assert np.allclose(a2[:n, :n], small_qldae.g1)
        assert np.allclose(a2[:n, n:], dense(small_qldae.g2))
        assert np.allclose(
            a2[n:, n:], dense(kron_sum_power(small_qldae.g1, 2))
        )

    def test_input_matrix_siso(self, small_qldae):
        """b̃2 = [D1 b; b ⊗ b] for SISO (paper eq. 17)."""
        ws = AssociatedWorkspace(small_qldae)
        r2 = associated_h2(small_qldae, ws)
        n = small_qldae.n_states
        b = small_qldae.b[:, 0]
        assert np.allclose(r2.b[:n, 0], small_qldae.d1[0] @ b)
        assert np.allclose(r2.b[n:, 0], np.kron(b, b))

    def test_eval_matches_manual_formula(self, small_qldae):
        """H2bar(s) = (sI−G1)^{-1}(G2 (sI−G1⊕G1)^{-1} b⊗b + D1 b)."""
        ws = AssociatedWorkspace(small_qldae)
        r2 = associated_h2(small_qldae, ws)
        n = small_qldae.n_states
        b = small_qldae.b[:, 0]
        s = 1.1 + 0.4j
        ks = dense(kron_sum_power(small_qldae.g1, 2))
        inner = dense(small_qldae.g2) @ np.linalg.solve(
            s * np.eye(n * n) - ks, np.kron(b, b)
        ) + small_qldae.d1[0] @ b
        manual = np.linalg.solve(s * np.eye(n) - small_qldae.g1, inner)
        assert np.allclose(r2.eval(s)[:, 0], manual)

    def test_impulse_matches_variational_g2_only(self, small_qldae_no_d1):
        """h2bar(t) == x2(t) under a narrow pulse (G2-only system —
        D1 systems differ by the theta(0) convention, see module docs)."""
        r2 = associated_h2(small_qldae_no_d1)
        # One-sample pulse: height 1/eps with eps = dt/2 gives discrete
        # impulse weight exactly 1 under the trapezoidal rule.
        dt = 0.002
        eps = dt / 2
        resp = volterra_series_response(
            small_qldae_no_d1,
            lambda t: (1.0 / eps) if t < eps else 0.0,
            3.0,
            dt,
            order=2,
        )
        h2 = r2.impulse_response(resp.times[::50])[:, :, 0]
        x2 = resp.orders[2][::50]
        scale = np.abs(h2).max()
        assert np.abs(x2 - h2).max() < 0.01 * scale

    def test_moment_vectors_span_taylor_directions(self, small_qldae):
        """The chain vectors span the Taylor coefficients of H2bar."""
        r2 = associated_h2(small_qldae)
        s0 = 0.3
        block = r2.moment_vectors(3, s0=s0)
        basis = np.linalg.qr(np.real(block))[0]
        # Taylor coefficients of H2bar at s0 via finite differences.
        eps = 1e-5
        f0 = np.real(r2.eval(s0)[:, 0])
        f1 = np.real(r2.eval(s0 + eps)[:, 0] - r2.eval(s0 - eps)[:, 0]) / (
            2 * eps
        )
        for vec in (f0, f1):
            proj = basis @ (basis.T @ vec)
            assert np.linalg.norm(proj - vec) < 1e-4 * np.linalg.norm(vec)

    def test_none_for_linear_system(self):
        sys = QLDAE(-np.eye(3), np.ones(3))
        assert associated_h2(sys) is None


class TestDecoupledEq18:
    def test_matches_coupled_eval(self, small_qldae):
        ws = AssociatedWorkspace(small_qldae)
        coupled = associated_h2(small_qldae, ws)
        dec = associated_h2_decoupled(small_qldae, ws)
        for s in (0.5, 1.5 + 0.8j):
            assert np.allclose(dec.eval(s), coupled.eval(s), atol=1e-10)

    def test_basis_blocks_span_moments(self, small_qldae):
        ws = AssociatedWorkspace(small_qldae)
        dec = associated_h2_decoupled(small_qldae, ws)
        coupled = associated_h2(small_qldae, ws)
        s0 = 0.4
        blocks = dec.basis_blocks(3, s0=s0)
        stacked = np.hstack([np.real(b) for b in blocks])
        basis = np.linalg.qr(stacked)[0]
        chain = np.real(coupled.moment_vectors(3, s0=s0))
        proj = basis @ (basis.T @ chain)
        assert np.abs(proj - chain).max() < 1e-8 * np.abs(chain).max()

    def test_pi_lives_in_workspace_cache(self, small_qldae):
        ws = AssociatedWorkspace(small_qldae)
        _ = associated_h2_decoupled(small_qldae, ws)
        assert ws._pi is not None


def realization_and_oracle(system):
    """``(workspace, factored H3 realization, dense oracle)``."""
    ws = AssociatedWorkspace(system)
    return ws, associated_h3(system, ws), DenseH3Oracle(ws)


def rel_err(x, ref):
    return np.abs(np.asarray(x) - ref).max() / np.abs(ref).max()


@pytest.fixture
def mixed_poly(rng):
    """3-state SISO system with both G2 and G3."""
    n = 3
    return PolynomialODE(
        -1.5 * np.eye(n) + 0.2 * rng.standard_normal((n, n)),
        rng.standard_normal(n),
        g2=0.1 * rng.standard_normal((n, n * n)),
        g3=0.05 * rng.standard_normal((n, n**3)),
    )


@pytest.fixture
def miso_qldae_d1(rng):
    """4-state, 2-input QLDAE with bilinear terms."""
    n, m = 4, 2
    return QLDAE(
        -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        g2=0.15 * rng.standard_normal((n, n * n)),
        d1=[0.2 * rng.standard_normal((n, n)) for _ in range(m)],
    )


class TestH3Realization:
    def test_eval_matches_dense_transfer(self, small_qldae):
        ws, r3, oracle = realization_and_oracle(small_qldae)
        ss = StateSpace(
            oracle.op.dense(), oracle.b,
            np.eye(oracle.op.dim)[: small_qldae.n_states],
        )
        s = 0.8 + 0.3j
        assert np.allclose(r3.eval(s)[:, 0], ss.transfer(s)[:, 0])

    def test_solve_shifted_matches_dense(self, small_qldae):
        ws, r3, oracle = realization_and_oracle(small_qldae)
        dense_a = oracle.op.dense() + 0.45 * np.eye(oracle.op.dim)
        vec = r3.columns[0]
        for _ in range(2):  # a seed, then a Schur-basis chain vector
            x = r3.operator.solve_shifted(0.45, vec)
            assert np.allclose(
                dense_a @ x.to_vector(), vec.to_vector(), atol=1e-8
            )
            vec = x

    def test_matvec_matches_dense(self, small_qldae, rng):
        _, _, oracle = realization_and_oracle(small_qldae)
        x = rng.standard_normal(oracle.op.dim)
        assert np.allclose(
            oracle.op.matvec(x), oracle.op.dense() @ x, atol=1e-10
        )

    def test_impulse_matches_variational_g2_only(self, small_qldae_no_d1):
        _, _, oracle = realization_and_oracle(small_qldae_no_d1)
        dt = 0.002
        eps = dt / 2
        resp = volterra_series_response(
            small_qldae_no_d1,
            lambda t: (1.0 / eps) if t < eps else 0.0,
            3.0,
            dt,
            order=3,
        )
        h3 = oracle.impulse_response(resp.times[::100])[:, :, 0]
        x3 = resp.orders[3][::100]
        scale = max(np.abs(h3).max(), 1e-12)
        assert np.abs(x3 - h3).max() < 0.02 * scale

    def test_cubic_system_impulse(self, small_cubic):
        _, _, oracle = realization_and_oracle(small_cubic)
        dt = 0.002
        eps = dt / 2
        resp = volterra_series_response(
            small_cubic,
            lambda t: (1.0 / eps) if t < eps else 0.0,
            3.0,
            dt,
            order=3,
        )
        h3 = oracle.impulse_response(resp.times[::100])[:, :, 0]
        x3 = resp.orders[3][::100]
        scale = max(np.abs(h3).max(), 1e-12)
        assert np.abs(x3 - h3).max() < 0.02 * scale

    def test_cubic_realization_structure(self, small_cubic):
        """Pure cubic: A3 = [[G1, G3],[0, ⊕³G1]], B3 = [0; sym(b⊗b⊗b)]."""
        _, r3, oracle = realization_and_oracle(small_cubic)
        n = small_cubic.n_states
        a3 = oracle.op.dense()
        assert a3.shape == (n + n**3,) * 2 == r3.operator.shape
        assert np.allclose(a3[:n, :n], small_cubic.g1)
        assert np.allclose(a3[:n, n:], dense(small_cubic.g3))
        b = small_cubic.b[:, 0]
        assert np.allclose(oracle.b[:n, 0], 0.0)
        assert np.allclose(oracle.b[n:, 0], np.kron(b, np.kron(b, b)))
        assert np.allclose(r3.columns[0].to_vector(), oracle.b[:, 0])

    def test_h3_none_for_linear(self):
        sys = QLDAE(-np.eye(2), np.ones(2))
        assert associated_h3(sys) is None

    def test_mixed_quadratic_cubic(self, mixed_poly):
        """A PolynomialODE with both G2 and G3 carries all four blocks."""
        _, r3, oracle = realization_and_oracle(mixed_poly)
        op = r3.operator
        assert op.has_quad and op.has_cubic
        n = mixed_poly.n_states
        n2 = n + n * n
        assert op.dim == oracle.op.dim == n + 2 * n * n2 + n**3
        s = 1.2
        assert np.allclose(r3.eval(s), oracle.eval(s), atol=1e-10)


H3_SYSTEMS = [
    "small_qldae", "small_qldae_no_d1", "small_cubic", "mixed_poly",
    "miso_qldae", "miso_qldae_d1",
]


class TestH3OracleParity:
    """The one factored H3 path against the dense A3/B3 oracle."""

    BOUND = 1e-12

    @pytest.mark.parametrize("name", H3_SYSTEMS)
    def test_eval(self, name, request):
        _, r3, oracle = realization_and_oracle(request.getfixturevalue(name))
        for s in (0.7, 0.8 + 0.3j):
            assert rel_err(r3.eval(s), oracle.eval(s)) <= self.BOUND

    @pytest.mark.parametrize("name", H3_SYSTEMS)
    def test_moment_vectors(self, name, request):
        _, r3, oracle = realization_and_oracle(request.getfixturevalue(name))
        moments = r3.moment_vectors(3, deduplicate=False)
        assert rel_err(moments, oracle.moment_vectors(3)) <= self.BOUND

    @pytest.mark.parametrize("name", H3_SYSTEMS)
    def test_solve_shifted(self, name, request):
        _, r3, oracle = realization_and_oracle(request.getfixturevalue(name))
        for vec in r3.columns:
            for shift in (0.45, -0.3 + 0.2j):
                x = r3.operator.solve_shifted(shift, vec).to_vector()
                ref = oracle.op.solve_shifted(shift, vec.to_vector())
                assert rel_err(x, ref) <= self.BOUND


class TestH3Mirror:
    """Every H3 chain vector has X_c = X_b transposed, so the factored
    path solves the b-block only."""

    @staticmethod
    def assert_mirrored(op, x):
        n, n2 = op.n, op.n2
        _, x_b, x_c, _ = op.split(x)
        xb = x_b.reshape(n, n2)
        xc = x_c.reshape(n2, n)
        assert np.abs(xc[:n] - xb[:, :n].T).max() <= 1e-13 * np.abs(xb).max()
        assert np.abs(xc[n:] - xb[:, n:].T).max() <= 1e-13 * np.abs(xb).max()

    @pytest.mark.parametrize("name", ["small_qldae", "miso_qldae_d1"])
    def test_b3_columns_and_dense_solves(self, name, request):
        _, r3, oracle = realization_and_oracle(request.getfixturevalue(name))
        for col in range(oracle.b.shape[1]):
            x = oracle.b[:, col]
            _, x_b, x_c, _ = oracle.op.split(x)
            assert np.array_equal(
                x_c.reshape(oracle.op.n2, -1),
                x_b.reshape(-1, oracle.op.n2).T,
            )
            for shift in (0.45, 0.1 - 0.6j):
                self.assert_mirrored(
                    oracle.op, oracle.op.solve_shifted(shift, x)
                )

    def test_factored_seeds_expand_to_b3(self, miso_qldae_d1):
        _, r3, oracle = realization_and_oracle(miso_qldae_d1)
        seeds = np.column_stack([v.to_vector() for v in r3.columns])
        assert rel_err(seeds, oracle.b) <= 1e-14


class TestH3DenseRefusals:
    """The lifted H3 state is held factored on every system."""

    def test_dense_system(self, small_qldae):
        r3 = associated_h3(small_qldae)
        with pytest.raises(ValidationError, match="factored"):
            r3.to_state_space()
        with pytest.raises(ValidationError, match="eval"):
            r3.impulse_response([0.0, 0.1])

    def test_sparse_system(self):
        circ = varistor_surge_protector(n_states=30)
        sparse_sys = CubicODE(
            sp.csr_matrix(circ.g1), circ.b, g3=circ.g3,
            mass=sp.csr_matrix(circ.mass), output=circ.output,
        ).to_explicit()
        r3 = associated_h3(sparse_sys)
        assert AssociatedWorkspace.for_system(sparse_sys).is_sparse
        with pytest.raises(ValidationError, match="moment_vectors"):
            r3.to_state_space()
        with pytest.raises(ValidationError, match="factored"):
            r3.impulse_response([0.0, 0.1])


class TestMIMO:
    def test_h2_eval_matches_multivariate_diagonal(self, miso_qldae):
        """Associated H2 at s equals the multivariate H2's association,
        checked structurally: same input-column symmetry."""
        r2 = associated_h2(miso_qldae)
        from repro.volterra import input_permutation

        h = r2.eval(0.9)
        m = miso_qldae.n_inputs
        swap = input_permutation(m, (1, 0)).toarray()
        assert np.allclose(h, h @ swap, atol=1e-12)

    def test_unique_column_dedup(self, miso_qldae):
        r2 = associated_h2(miso_qldae)
        full = r2.moment_vectors(2, deduplicate=False)
        dedup = r2.moment_vectors(2, deduplicate=True)
        # m² = 4 columns, 3 unique multisets -> 8 vs 6 chain vectors
        assert full.shape[1] == 8
        assert dedup.shape[1] == 6
        # spans agree
        q = np.linalg.qr(np.real(dedup))[0]
        proj = q @ (q.T @ np.real(full))
        assert np.abs(proj - np.real(full)).max() < 1e-8

    def test_workspace_requires_explicit(self, rng):
        sys = QLDAE(
            -np.eye(2), np.ones(2), g2=np.zeros((2, 4)),
            mass=2 * np.eye(2)
        )
        with pytest.raises(SystemStructureError):
            AssociatedWorkspace(sys)
