"""Tests for HSV-based automatic order selection (paper §4, bullet 1)."""

import numpy as np
import pytest

from h3_oracle import DenseH3Oracle
from repro.linalg.arnoldi import merge_bases
from repro.mor import realization_hankel_values, suggest_orders
from repro.volterra import (
    AssociatedWorkspace,
    associated_h1,
    associated_h2,
    associated_h3,
)
from repro.systems import QLDAE, StateSpace


@pytest.fixture
def rng():
    return np.random.default_rng(151)


class TestRealizationHankelValues:
    def test_h1_hsv_matches_dense(self, small_qldae):
        """For H1 the surrogate HSVs should approximate the dense ones."""
        r1 = associated_h1(small_qldae)
        approx = realization_hankel_values(r1, probe=5)
        from repro.systems import StateSpace

        dense = StateSpace(
            small_qldae.g1, small_qldae.b, np.eye(5)
        ).hankel_singular_values()
        # leading values agree to a few percent
        k = min(3, len(approx), len(dense))
        assert np.allclose(approx[:k], dense[:k], rtol=0.05)

    def test_h2_values_positive_decreasing(self, small_qldae):
        r2 = associated_h2(small_qldae)
        hsv = realization_hankel_values(r2, probe=4)
        assert np.all(hsv >= 0)
        assert np.all(np.diff(hsv) <= 1e-12)


def galerkin_hsv(op, b, n_top, probe, s0):
    """HSVs of the surrogate projected with an explicit matvec,
    ``Vᵀ (A V)`` on the merged shift-invert chains."""
    chains, current = [], b.astype(complex)
    for _ in range(probe):
        current = np.column_stack(
            [op.solve_shifted(-s0, col) for col in current.T]
        )
        chains.append(current)
    basis = merge_bases(chains, tol=1e-10)
    av = np.column_stack([op.matvec(v) for v in basis.T])
    return StateSpace(
        basis.T @ np.real(av), basis.T @ b, basis[:n_top]
    ).hankel_singular_values()


class TestChainProjection:
    """The surrogate's ``Vᵀ A V`` comes from the chains themselves; it
    must equal the matvec projection, for H3 against the dense oracle."""

    @pytest.mark.parametrize("s0", [0.0, 0.3])
    def test_h1_h2(self, small_qldae, s0):
        ws = AssociatedWorkspace(small_qldae)
        for real in (associated_h1(small_qldae, ws),
                     associated_h2(small_qldae, ws)):
            got = realization_hankel_values(real, probe=4, s0=s0)
            ref = galerkin_hsv(real.operator, real.b, ws.n, 4, s0)
            assert np.abs(got - ref).max() <= 1e-9 * ref[0]

    @pytest.mark.parametrize("name", ["small_qldae", "small_cubic"])
    @pytest.mark.parametrize("s0", [0.0, 0.3])
    def test_dense_h3_matches_oracle(self, name, s0, request):
        system = request.getfixturevalue(name)
        ws = AssociatedWorkspace(system)
        oracle = DenseH3Oracle(ws)
        got = realization_hankel_values(
            associated_h3(system, ws), probe=4, s0=s0
        )
        ref = galerkin_hsv(oracle.op, oracle.b, ws.n, 4, s0)
        assert np.abs(got - ref).max() <= 1e-9 * ref[0]


class TestSuggestOrders:
    def test_returns_triple_and_hsvs(self, small_qldae):
        orders, hsvs = suggest_orders(small_qldae, probe=4)
        assert len(orders) == 3
        assert orders[0] >= 1
        assert set(hsvs) == {"H1", "H2", "H3"}

    def test_weak_nonlinearity_gets_fewer_moments(self, rng):
        """A nearly-linear system should be assigned q2, q3 << q1."""
        n = 5
        g1 = -1.2 * np.eye(n) + 0.2 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        weak = QLDAE(g1, b, g2=1e-8 * rng.standard_normal((n, n * n)))
        orders, _ = suggest_orders(weak, probe=4, tol=1e-4)
        assert orders[0] >= 1
        assert orders[1] == 0
        assert orders[2] == 0

    def test_linear_system(self, rng):
        sys = QLDAE(-np.eye(4), np.ones(4))
        orders, hsvs = suggest_orders(sys, probe=3)
        assert orders[1] == 0 and orders[2] == 0
        assert "H2" not in hsvs

    def test_suggested_orders_give_accurate_rom(self, small_qldae):
        from repro.mor import AssociatedTransformMOR
        from repro.simulation import simulate, sine_source
        from repro.analysis import max_relative_error

        orders, _ = suggest_orders(small_qldae, probe=5, tol=1e-6)
        rom = AssociatedTransformMOR(orders=orders).reduce(small_qldae)
        u = sine_source(0.2, 0.4)
        full = simulate(small_qldae, u, 6.0, 0.01)
        red = simulate(rom.system, u, 6.0, 0.01)
        assert max_relative_error(full.output(0), red.output(0)) < 1e-2
