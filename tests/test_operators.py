"""Unit tests for the matrix-free lifted operators."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.linalg import (
    DenseOperator,
    KronSumOperator,
    QuadraticLiftedOperator,
    kron_sum_power,
)


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def g1(rng):
    return -1.4 * np.eye(5) + 0.3 * rng.standard_normal((5, 5))


@pytest.fixture
def g2(rng):
    return 0.25 * rng.standard_normal((5, 25))


class TestDenseOperator:
    def test_matvec_and_solves(self, rng):
        a = -np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        op = DenseOperator(a)
        x = rng.standard_normal(4)
        assert np.allclose(op.matvec(x), a @ x)
        sol = op.solve_shifted(0.5, x)
        assert np.allclose((a + 0.5 * np.eye(4)) @ sol, x)

    def test_lu_cache_reused(self, rng):
        a = -np.eye(3)
        op = DenseOperator(a)
        op.solve_shifted(0.5, np.ones(3))
        op.solve_shifted(0.5, np.zeros(3))
        assert len(op._lu_cache) == 1


class TestKronSumOperator:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matvec(self, g1, rng, k):
        op = KronSumOperator(g1, k)
        dense = kron_sum_power(g1, k)
        dense = dense.toarray() if hasattr(dense, "toarray") else dense
        x = rng.standard_normal(5**k)
        assert np.allclose(op.matvec(x), np.asarray(dense) @ x)

    def test_solve(self, g1, rng):
        op = KronSumOperator(g1, 2)
        x = rng.standard_normal(25)
        sol = op.solve_shifted(0.4, x)
        dense = op.dense() + 0.4 * np.eye(25)
        assert np.allclose(dense @ sol, x, atol=1e-9)

    def test_invalid_k(self, g1):
        with pytest.raises(ValidationError):
            KronSumOperator(g1, 4)


class TestQuadraticLiftedOperator:
    def test_dense_structure(self, g1, g2):
        op = QuadraticLiftedOperator(g1, g2)
        dense = op.dense()
        n = 5
        assert dense.shape == (30, 30)
        assert np.allclose(dense[:n, :n], g1)
        assert np.allclose(dense[:n, n:], g2)
        assert np.allclose(dense[n:, :n], 0.0)

    def test_matvec_matches_dense(self, g1, g2, rng):
        op = QuadraticLiftedOperator(g1, g2)
        x = rng.standard_normal(op.dim)
        assert np.allclose(op.matvec(x), op.dense() @ x)

    def test_solve_shifted(self, g1, g2, rng):
        op = QuadraticLiftedOperator(g1, g2)
        rhs = rng.standard_normal(op.dim)
        x = op.solve_shifted(0.6, rhs)
        assert np.allclose(
            (op.dense() + 0.6 * np.eye(op.dim)) @ x, rhs, atol=1e-9
        )

    def test_shape_validation(self, g1):
        with pytest.raises(ValidationError):
            QuadraticLiftedOperator(g1, np.zeros((5, 10)))

    def test_split_checks_length(self, g1, g2):
        op = QuadraticLiftedOperator(g1, g2)
        with pytest.raises(ValidationError):
            op.split(np.zeros(7))
