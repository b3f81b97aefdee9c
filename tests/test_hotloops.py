"""Scatter kernel: np.add.at equivalence."""

import numpy as np
import pytest

from repro.linalg._hotloops import scatter_add_rows


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestScatterAddRows:
    def test_1d_real_bitwise(self, rng):
        rows = rng.integers(0, 50, size=400)
        contrib = rng.standard_normal(400)
        expected = np.zeros(50)
        np.add.at(expected, rows, contrib)
        out = scatter_add_rows(np.zeros(50), rows, contrib)
        np.testing.assert_array_equal(out, expected)

    def test_1d_complex_bitwise(self, rng):
        rows = rng.integers(0, 30, size=200)
        contrib = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        expected = np.zeros(30, dtype=complex)
        np.add.at(expected, rows, contrib)
        out = scatter_add_rows(np.zeros(30, dtype=complex), rows, contrib)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("presorted", [True, False])
    def test_2d_matches_add_at(self, rng, presorted):
        rows = rng.integers(0, 40, size=300)
        if presorted:
            rows = np.sort(rows)
        contrib = rng.standard_normal((300, 7)) + 1j * rng.standard_normal(
            (300, 7)
        )
        expected = np.zeros((40, 7), dtype=complex)
        np.add.at(expected, rows, contrib)
        out = scatter_add_rows(
            np.zeros((40, 7), dtype=complex), rows, contrib
        )
        # reduceat groups sums pairwise: a few ulps from sequential.
        assert np.abs(out - expected).max() <= 1e-12

    def test_empty_rows_noop(self):
        out = np.zeros(5)
        result = scatter_add_rows(
            out, np.array([], dtype=np.intp), np.array([])
        )
        assert result is out
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_single_element(self):
        out = scatter_add_rows(
            np.zeros(4), np.array([2]), np.array([3.5])
        )
        np.testing.assert_array_equal(out, [0.0, 0.0, 3.5, 0.0])

