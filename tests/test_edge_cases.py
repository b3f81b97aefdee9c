"""Cross-cutting edge-case tests (second pass of coverage)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.linalg import moment_chain, moment_chain_operator
from repro.linalg.operators import DenseOperator
from repro.mor import AssociatedTransformMOR, NORMReducer, ReducedOrderModel
from repro.simulation import simulate, step_source
from repro.systems import PolynomialODE, QLDAE
from repro.volterra import (
    AssociatedWorkspace,
    associated_h1,
    associated_h2,
    associated_h3,
)


@pytest.fixture
def rng():
    return np.random.default_rng(191)


class TestMomentChains:
    def test_moment_chain_callable(self, rng):
        a = -np.eye(3) - 0.1 * rng.standard_normal((3, 3))
        inv = np.linalg.inv(a)
        chain = moment_chain(lambda v: inv @ v, np.ones(3), 3)
        assert len(chain) == 3
        assert np.allclose(chain[0], inv @ np.ones(3))
        assert np.allclose(chain[2], inv @ inv @ inv @ np.ones(3))

    def test_moment_chain_operator_shift(self, rng):
        a = -2 * np.eye(3)
        op = DenseOperator(a)
        chain = moment_chain_operator(op, np.ones(3), 2, shift=-0.5)
        # (A - 0.5 I)^{-1} = -1/2.5 I
        assert np.allclose(chain[0], -np.ones(3) / 2.5)
        assert np.allclose(chain[1], np.ones(3) / 2.5**2)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            moment_chain(lambda v: v, np.ones(2), 0)


class TestAssociatedRealizationExtras:
    def test_to_state_space_with_output(self, small_qldae):
        r2 = associated_h2(small_qldae)
        ss = r2.to_state_space(output=small_qldae.output)
        assert ss.n_outputs == 1
        s = 0.7
        direct = small_qldae.output @ r2.eval(s)
        assert np.allclose(ss.transfer(s), direct)

    def test_h1_realization_moments_match_linear(self, small_qldae):
        r1 = associated_h1(small_qldae)
        vecs = r1.moment_vectors(2, s0=0.0)
        # first chain vector is G1^{-1} b (up to sign conventions)
        expected = np.linalg.solve(-small_qldae.g1, small_qldae.b[:, 0])
        assert np.allclose(np.real(vecs[:, 0]), -expected)

    def test_eval_multiple_points_consistent(self, small_qldae):
        r2 = associated_h2(small_qldae)
        a = r2.eval(0.4 + 0.1j)
        b = r2.eval(0.4 - 0.1j)
        # real system: conjugate symmetry
        assert np.allclose(a, np.conj(b))

    def test_workspace_reuse_across_orders(self, small_qldae):
        ws = AssociatedWorkspace(small_qldae)
        r2 = associated_h2(small_qldae, ws)
        r3 = associated_h3(small_qldae, ws)
        assert r2.operator.kron_solver is ws.kron_solver
        assert r3.workspace is ws
        assert r3.operator.kron is ws.kron_solver
        assert ws._lowrank is None


class TestReducedOrderModelContainer:
    def test_repr_and_properties(self, small_qldae):
        rom = AssociatedTransformMOR(orders=(2, 1, 0)).reduce(small_qldae)
        text = repr(rom)
        assert "order" in text
        assert rom.full_order == 5
        assert rom.expansion_points == (0.0,)

    def test_manual_construction_validates_basis(self):
        with pytest.raises(ValidationError):
            ReducedOrderModel(None, np.zeros(3), "m")


class TestMixedPolynomialReduction:
    def test_quadratic_plus_cubic_system(self, rng):
        """A system with BOTH G2 and G3 goes through the full pipeline."""
        n = 8
        g1 = -1.4 * np.eye(n) + 0.2 * rng.standard_normal((n, n))
        sys = PolynomialODE(
            g1,
            rng.standard_normal(n),
            g2=0.1 * rng.standard_normal((n, n * n)),
            g3=0.05 * rng.standard_normal((n, n**3)),
            output=np.eye(n)[0],
        )
        rom = AssociatedTransformMOR(orders=(4, 2, 2)).reduce(sys)
        assert rom.system.g2 is not None
        assert rom.system.g3 is not None
        u = step_source(0.2)
        full = simulate(sys, u, 5.0, 0.01)
        red = simulate(rom.system, u, 5.0, 0.01)
        scale = np.abs(full.output(0)).max()
        assert np.abs(full.output(0) - red.output(0)).max() < 0.01 * scale

    def test_norm_on_mixed_system(self, rng):
        n = 6
        g1 = -1.4 * np.eye(n) + 0.2 * rng.standard_normal((n, n))
        sys = PolynomialODE(
            g1,
            rng.standard_normal(n),
            g2=0.1 * rng.standard_normal((n, n * n)),
            g3=0.05 * rng.standard_normal((n, n**3)),
        )
        rom = NORMReducer(orders=(3, 2, 2)).reduce(sys)
        kinds = [name for name, _ in rom.details["blocks"]]
        assert "H3" in kinds


class TestComplexExpansionPoints:
    def test_complex_point_real_basis(self, small_qldae):
        rom = AssociatedTransformMOR(
            orders=(2, 1, 0), expansion_points=(1.0j,)
        ).reduce(small_qldae)
        assert rom.basis.dtype.kind == "f"
        # real + imaginary directions both present
        assert rom.order >= 4

    def test_repeated_points_deflate(self, small_qldae):
        rom_single = AssociatedTransformMOR(
            orders=(3, 0, 0), expansion_points=(0.0,)
        ).reduce(small_qldae)
        rom_double = AssociatedTransformMOR(
            orders=(3, 0, 0), expansion_points=(0.0, 0.0)
        ).reduce(small_qldae)
        assert rom_double.order == rom_single.order


class TestSimulationProtocolDuckTyping:
    def test_mass_form_rom_simulates(self, rng):
        """A mass-form ROM (from congruence projection) integrates."""
        n = 10
        mass = np.diag(rng.uniform(0.5, 2.0, n))
        g1 = -np.eye(n) - 0.1 * rng.standard_normal((n, n))
        g1 = 0.5 * (g1 + g1.T)  # symmetric negative definite
        sys = QLDAE(
            g1,
            rng.standard_normal(n),
            g2=0.05 * rng.standard_normal((n, n * n)),
            mass=mass,
        )
        rom = AssociatedTransformMOR(orders=(3, 2, 0)).reduce(sys)
        assert rom.system.mass is not None
        res = simulate(rom.system, step_source(0.2), 3.0, 0.01)
        assert np.isfinite(res.states).all()
        full = simulate(sys, step_source(0.2), 3.0, 0.01)
        scale = np.abs(full.outputs).max()
        rom_out = rom.system.observe(res.states)
        # compare first observed coordinate (output = identity here)
        assert np.abs(
            full.states @ sys.output.T - res.states @ rom.system.output.T
        ).max() < 0.05 * scale
