"""Unit tests for PolynomialODE / QLDAE / CubicODE."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits.examples import varistor_surge_protector
from repro.errors import SystemStructureError, ValidationError
from repro.systems import CubicODE, PolynomialODE, QLDAE


@pytest.fixture
def rng():
    return np.random.default_rng(51)


class TestConstruction:
    def test_qldae_rejects_cubic(self, rng):
        with pytest.raises(TypeError):
            QLDAE(-np.eye(2), np.ones(2), g3=np.zeros((2, 8)))

    def test_dimension_checks(self, rng):
        with pytest.raises(SystemStructureError):
            QLDAE(-np.eye(3), np.ones(3), g2=np.zeros((3, 8)))
        with pytest.raises(SystemStructureError):
            QLDAE(-np.eye(3), np.ones(4))

    def test_d1_single_matrix_siso(self, rng):
        sys = QLDAE(
            -np.eye(3), np.ones(3), g2=np.zeros((3, 9)),
            d1=0.1 * np.eye(3)
        )
        assert len(sys.d1) == 1

    def test_d1_all_zero_collapses_to_none(self):
        sys = QLDAE(
            -np.eye(3), np.ones(3), g2=np.zeros((3, 9)),
            d1=np.zeros((3, 3))
        )
        assert sys.d1 is None

    def test_d1_count_mismatch(self, rng):
        with pytest.raises(SystemStructureError):
            QLDAE(
                -np.eye(3),
                np.ones((3, 2)),
                g2=np.zeros((3, 9)),
                d1=[np.eye(3)],
            )

    def test_output_vector_promoted(self):
        sys = QLDAE(-np.eye(3), np.ones(3), output=np.array([1.0, 0, 0]))
        assert sys.output.shape == (1, 3)

    def test_repr_mentions_terms(self, small_qldae, small_cubic):
        assert "quadratic" in repr(small_qldae)
        assert "bilinear-input" in repr(small_qldae)
        assert "cubic" in repr(small_cubic)


class TestEvaluation:
    def test_rhs_matches_dense_formula(self, small_qldae, rng):
        x = rng.standard_normal(5)
        u = np.array([0.7])
        expected = (
            small_qldae.g1 @ x
            + small_qldae.g2 @ np.kron(x, x)
            + small_qldae.d1[0] @ x * 0.7
            + small_qldae.b[:, 0] * 0.7
        )
        assert np.allclose(small_qldae.rhs(x, u), expected)

    def test_rhs_cubic(self, small_cubic, rng):
        x = rng.standard_normal(4)
        expected = (
            small_cubic.g1 @ x
            + small_cubic.g3 @ np.kron(x, np.kron(x, x))
            + small_cubic.b[:, 0] * 0.3
        )
        assert np.allclose(small_cubic.rhs(x, [0.3]), expected)

    def test_jacobian_matches_finite_difference(self, small_qldae, rng):
        x = 0.3 * rng.standard_normal(5)
        u = np.array([0.4])
        jac = small_qldae.jacobian(x, u)
        eps = 1e-6
        fd = np.zeros((5, 5))
        for j in range(5):
            dx = np.zeros(5)
            dx[j] = eps
            fd[:, j] = (
                small_qldae.rhs(x + dx, u) - small_qldae.rhs(x - dx, u)
            ) / (2 * eps)
        assert np.allclose(jac, fd, atol=1e-6)

    def test_jacobian_cubic_finite_difference(self, small_cubic, rng):
        x = 0.3 * rng.standard_normal(4)
        u = np.array([0.0])
        jac = small_cubic.jacobian(x, u)
        eps = 1e-6
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            fd = (
                small_cubic.rhs(x + dx, u) - small_cubic.rhs(x - dx, u)
            ) / (2 * eps)
            assert np.allclose(jac[:, j], fd, atol=1e-6)

    def test_input_shape_validation(self, small_qldae):
        with pytest.raises(ValidationError):
            small_qldae.rhs(np.zeros(5), [1.0, 2.0])

    def test_observe_trajectory(self, small_qldae, rng):
        traj = rng.standard_normal((7, 5))
        out = small_qldae.observe(traj)
        assert out.shape == (7, 1)
        assert np.allclose(out[:, 0], traj @ small_qldae.output[0])


class TestMass:
    def test_to_explicit_folds_mass(self, rng):
        n = 4
        mass = np.eye(n) * 2.0
        g1 = -np.eye(n)
        g2 = sp.csr_matrix(0.1 * rng.standard_normal((n, n * n)))
        sys = QLDAE(g1, np.ones(n), g2=g2, mass=mass)
        explicit = sys.to_explicit()
        assert explicit.mass is None
        assert np.allclose(explicit.g1, g1 / 2.0)
        assert np.allclose(
            explicit.g2.toarray(), g2.toarray() / 2.0
        )
        x = rng.standard_normal(n)
        # Same dynamics: mass^{-1} f_original == f_explicit
        assert np.allclose(
            np.linalg.solve(mass, sys.rhs(x, [0.5])),
            explicit.rhs(x, [0.5]),
        )

    def test_dense_mass_fold_matches_dense_solve(self, rng):
        # A dense, non-diagonal mass on a quadratic-cubic system: the
        # folded g2/g3 must equal C^{-1} times the dense coefficients.
        n = 5
        mass = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        g2 = sp.random(n, n**2, density=0.1, random_state=1, format="csr")
        g3 = sp.random(n, n**3, density=0.02, random_state=2, format="csr")
        sys = PolynomialODE(-np.eye(n), np.ones(n), g2=g2, g3=g3, mass=mass)
        explicit = sys.to_explicit()
        for folded, coeff in ((explicit.g2, g2), (explicit.g3, g3)):
            assert sp.issparse(folded)
            np.testing.assert_allclose(
                folded.toarray(), np.linalg.solve(mass, coeff.toarray()),
                rtol=0, atol=1e-13,
            )
        np.testing.assert_allclose(
            explicit.g1, np.linalg.solve(mass, -np.eye(n)), rtol=0,
            atol=1e-13,
        )

    def test_dense_mass_fold_never_densifies_g3(self):
        # The paper's §3.4 varistor (n = 102, dense mass, two G3
        # nonzeros): a dense (n, n³) block would be ~850 MB.
        circ = varistor_surge_protector(n_states=102)
        assert circ.mass is not None and not sp.issparse(circ.mass)
        tracemalloc.start()
        explicit = circ.to_explicit()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 16e6
        assert explicit.mass is None
        assert explicit.g3.nnz <= circ.n_states * circ.g3.nnz

    def test_singular_mass_raises(self):
        mass = np.diag([1.0, 0.0])
        sys = QLDAE(-np.eye(2), np.ones(2), mass=mass)
        with pytest.raises(SystemStructureError):
            sys.to_explicit()

    def test_linear_part_requires_explicit(self):
        sys = QLDAE(-np.eye(2), np.ones(2), mass=2 * np.eye(2))
        with pytest.raises(SystemStructureError):
            sys.linear_part()


class TestProjection:
    def test_projected_rhs_is_galerkin(self, small_qldae, rng):
        v = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        rom = small_qldae.project(v)
        xr = 0.2 * rng.standard_normal(3)
        u = np.array([0.6])
        # Galerkin: rom.rhs(xr) == Vᵀ full.rhs(V xr)
        assert np.allclose(
            rom.rhs(xr, u), v.T @ small_qldae.rhs(v @ xr, u), atol=1e-12
        )

    def test_projected_cubic(self, small_cubic, rng):
        v = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        rom = small_cubic.project(v)
        assert isinstance(rom, CubicODE)
        xr = 0.3 * rng.standard_normal(2)
        assert np.allclose(
            rom.rhs(xr, [0.1]),
            v.T @ small_cubic.rhs(v @ xr, [0.1]),
            atol=1e-12,
        )

    def test_projection_type_preserved(self, small_qldae, rng):
        v = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        assert isinstance(small_qldae.project(v), QLDAE)

    def test_projection_shape_check(self, small_qldae, rng):
        with pytest.raises(ValidationError):
            small_qldae.project(rng.standard_normal((4, 2)))

    def test_output_projected(self, small_qldae, rng):
        v = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        rom = small_qldae.project(v)
        assert np.allclose(rom.output, small_qldae.output @ v)


class TestPolynomialODEGeneral:
    def test_combined_quadratic_cubic(self, rng):
        n = 3
        sys = PolynomialODE(
            -np.eye(n),
            np.ones(n),
            g2=0.1 * rng.standard_normal((n, n * n)),
            g3=0.05 * rng.standard_normal((n, n**3)),
        )
        x = 0.4 * rng.standard_normal(n)
        expected = (
            -x
            + sys.g2 @ np.kron(x, x)
            + sys.g3 @ np.kron(x, np.kron(x, x))
            + np.ones(n) * 0.2
        )
        assert np.allclose(sys.rhs(x, [0.2]), expected)
