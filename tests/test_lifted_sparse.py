"""Circuit-scale lifted H2/H3 coverage: low-rank Π + matrix-free chains.

The acceptance workload for the sparse lifted machinery:

* dense ↔ low-rank Π parity (``pi_sylvester_residual ≤ 1e-8·‖G2‖`` at
  n ≈ 150) through the public residual API,
* full-order ``build_basis`` with ``orders=(q1, q2, q3)`` all > 0 and
  ``strategy="decoupled"`` on sparse circuits at n ≥ 1024 and n ≥ 2048
  with ``toarray`` poisoned (zero densifications), matching the dense
  Schur path to ≤ 1e-8 at n ≈ 200,
* a tracemalloc-capped regression pinning the streamed ``H3``
  evaluation to O(n·m³) memory on a cubic circuit (the former dense
  ``(n³, m³)`` accumulator measured 84 MB at n = 120 and went
  out-of-memory by n ≈ 500).
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.distortion import single_tone_distortion
from repro.circuits.examples import (
    quadratic_rc_ladder_netlist,
    varistor_surge_protector,
)
from repro.errors import NumericalError, ValidationError
from repro.linalg.kronecker import sparse_kron_apply
from repro.linalg.resolvent import ResolventFactory
from repro.linalg.sylvester import (
    FactoredPi,
    FactoredTensor,
    KronSumSolver,
    LowRankKronSolver,
    pi_sylvester_residual,
    solve_pi_sylvester,
)
from repro.mor.assoc import AssociatedTransformMOR
from repro.systems import CubicODE
from repro.volterra.associated import (
    AssociatedWorkspace,
    FactoredH3Realization,
    associated_h2_decoupled,
    associated_h3,
)


def forbid_densify(monkeypatch):
    """Poison sparse→dense conversion for the duration of a test."""

    def boom(self, *args, **kwargs):
        raise AssertionError(
            f"sparse matrix {self.shape} was densified on the fast path"
        )

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", boom)
        monkeypatch.setattr(cls, "todense", boom)


def low_rank_ladder(n_nodes, quad_nodes=8, sparse=True):
    """Sep-healthy ladder with quadratic conductances on a few nodes.

    Strong leak + weak coupling keeps the spectral spread below 2×, so
    the eq.-(18) Π equation is well separated — the conditioning regime
    the decoupled strategy (dense or factored) relies on.
    """
    net = quadratic_rc_ladder_netlist(
        n_nodes, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=quad_nodes
    )
    return net.compile(sparse=sparse).to_explicit()


def make_solver(system, **kwargs):
    g1 = system.g1
    factory = ResolventFactory.for_system(system)

    def solve(shift, rhs):
        return -factory.solve(-shift, np.asarray(rhs, dtype=complex))

    def solve_t(shift, rhs):
        return -factory.solve_transpose(
            -shift, np.asarray(rhs, dtype=complex)
        )

    return LowRankKronSolver(g1, solve, solve_t, **kwargs)


class TestFactoredTensor:
    def test_rank_one_roundtrip(self, rng):
        u, v, w = rng.standard_normal((3, 7))
        ft = FactoredTensor.rank_one([u, v, w], weight=2.5)
        ref = 2.5 * np.kron(u, np.kron(v, w))
        assert np.allclose(ft.to_vector(), ref)
        assert abs(ft.norm() - np.linalg.norm(ref)) < 1e-12

    def test_add_and_compress(self, rng):
        u, v = rng.standard_normal((2, 6))
        a = FactoredTensor.rank_one([u, v])
        b = FactoredTensor.rank_one([v, u]).scaled(0.5)
        s = a.add(b)
        ref = np.kron(u, v) + 0.5 * np.kron(v, u)
        assert np.allclose(s.to_vector(), ref)
        c = s.compress(1e-13)
        assert c.ranks <= (2, 2)
        assert np.allclose(c.to_vector(), ref)

    def test_zeros(self):
        z = FactoredTensor.zeros((4, 4))
        assert z.norm() == 0.0
        assert np.all(z.to_vector() == 0.0)


class TestSparseKronApply:
    def test_matches_dense_kron(self, rng):
        n, m = 12, 2
        g3 = sp.random(n, n**3, density=5e-4, random_state=3, format="csr")
        factors = [
            rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            for _ in range(3)
        ]
        ref = g3 @ np.kron(factors[0], np.kron(factors[1], factors[2]))
        out = sparse_kron_apply(g3, factors)
        assert np.abs(out - ref).max() < 1e-12

    def test_validates_shapes(self, rng):
        g2 = sp.random(5, 25, density=0.1, random_state=0, format="csr")
        with pytest.raises(ValidationError):
            sparse_kron_apply(g2, [np.eye(4), np.eye(5)])
        with pytest.raises(ValidationError):
            sparse_kron_apply(
                g2, [np.ones((5, 3)), np.ones((5, 4))], columnwise=True
            )

    @pytest.mark.parametrize("order", [2, 3])
    def test_columnwise_is_khatri_rao(self, rng, order):
        """Column k of the batched contraction is mat @ (a_k ⊗ b_k [⊗ c_k]),
        and does not depend on the batch around it."""
        n, k = 6, 7
        mat = sp.random(n, n**order, density=0.2, random_state=5,
                        format="csr")
        factors = [
            rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            for _ in range(order)
        ]
        out = sparse_kron_apply(mat, factors, columnwise=True)
        assert out.shape == (n, k)
        for col in range(k):
            single = [f[:, col : col + 1] for f in factors]
            ref = sparse_kron_apply(mat, single)
            assert np.abs(out[:, col] - ref[:, 0]).max() < 1e-12
        part = sparse_kron_apply(
            mat, [f[:, 2:5] for f in factors], columnwise=True
        )
        assert np.array_equal(part, out[:, 2:5])


class TestLowRankKronSolves:
    def test_k2_k3_match_dense_schur(self, rng):
        system = low_rank_ladder(80, sparse=True)
        dense_g1 = low_rank_ladder(80, sparse=False).g1
        solver = make_solver(system, tol=1e-10)
        ref_solver = KronSumSolver(dense_g1)
        b = np.asarray(system.b[:, 0])
        c = rng.standard_normal(80)
        for shift in (0.0, 0.45, 0.2 + 0.8j):
            x = solver.solve(
                FactoredTensor.rank_one([b, c]), k=2, shift=shift
            )
            ref = ref_solver.solve(np.kron(b, c), k=2, shift=shift)
            assert (
                np.abs(x.to_vector() - ref).max() / np.abs(ref).max()
                < 1e-8
            )
        x3 = solver.solve(
            FactoredTensor.rank_one([b, b, c]), k=3, shift=0.1
        )
        ref3 = ref_solver.solve(np.kron(b, np.kron(b, c)), k=3, shift=0.1)
        assert np.abs(x3.to_vector() - ref3).max() / np.abs(ref3).max() < 1e-8

    def test_chain_reuses_basis(self):
        system = low_rank_ladder(100, sparse=True)
        solver = make_solver(system)
        b = np.asarray(system.b[:, 0])
        current = FactoredTensor.rank_one([b, b])
        current = solver.solve(current, k=2, shift=0.0)
        dim_after_first = solver.dim
        dims = []
        for _ in range(5):
            current = solver.solve(current, k=2, shift=0.0)
            dims.append(solver.dim)
        # Later chain steps live in the accumulated basis: the shared
        # space saturates instead of growing per step.
        assert dims[-1] == dims[-2] == dims[-3]
        assert dims[-1] <= dim_after_first + 8

    def test_zero_rhs_short_circuits(self):
        system = low_rank_ladder(40, sparse=True)
        solver = make_solver(system)
        z = solver.solve(FactoredTensor.zeros((40, 40)), k=2)
        assert z.norm() == 0.0

    def test_stall_raises_numerical_error(self):
        system = low_rank_ladder(60, sparse=True)
        solver = make_solver(system, max_dim=3)
        b = np.asarray(system.b[:, 0])
        with pytest.raises(NumericalError):
            solver.solve(
                FactoredTensor.rank_one([b, np.ones(60)]), k=2, tol=1e-12
            )


class TestLowRankPi:
    N = 150

    def test_dense_lowrank_pi_parity(self):
        ssys = low_rank_ladder(self.N, sparse=True)
        dsys = low_rank_ladder(self.N, sparse=False)
        solver = make_solver(ssys)
        fpi = solver.solve_pi(ssys.g2, tol=1e-9)
        assert isinstance(fpi, FactoredPi)
        assert fpi.rank < self.N // 2
        g2_norm = fpi.rhs_norm
        # The acceptance bound, through the public residual API — both
        # the factored evaluation and the dense evaluation of the same
        # factored Π.
        assert pi_sylvester_residual(ssys.g1, ssys.g2, fpi) <= 1e-8 * g2_norm
        pi_dense = solve_pi_sylvester(dsys.g1, dsys.g2.toarray())
        assert (
            pi_sylvester_residual(dsys.g1, dsys.g2.toarray(), fpi.to_dense())
            <= 1e-8 * g2_norm
        )
        scale = np.abs(pi_dense).max()
        assert np.abs(fpi.to_dense() - pi_dense).max() / scale < 1e-8

    def test_factored_pi_apply(self, rng):
        ssys = low_rank_ladder(self.N, sparse=True)
        dsys = low_rank_ladder(self.N, sparse=False)
        fpi = make_solver(ssys).solve_pi(ssys.g2, tol=1e-9)
        pi_dense = solve_pi_sylvester(dsys.g1, dsys.g2.toarray())
        v = rng.standard_normal((self.N**2, 3))
        scale = np.abs(pi_dense @ v).max()
        assert np.abs(fpi.apply(v) - pi_dense @ v).max() / scale < 1e-8
        u, w = rng.standard_normal((2, self.N))
        ft = FactoredTensor.rank_one([u, w])
        ref = pi_dense @ np.kron(u, w)
        assert (
            np.abs(fpi.apply_factored(ft) - ref).max()
            / max(np.abs(ref).max(), 1e-300)
            < 1e-7
        )

    def test_nonsymmetric_g1_pi_converges(self, rng):
        # Regression: the Bartels–Stewart coupling terms in the
        # right-projected sweep carried the wrong sign, masked by the
        # symmetric (diagonal-Schur) RC-ladder circuits.
        n = 40
        g1d = -np.diag(2.0 + 0.3 * rng.random(n))
        for k in range(n - 1):
            g1d[k, k + 1] = 0.25 * rng.standard_normal()
            g1d[k + 1, k] = 0.10 * rng.standard_normal()
        g1 = sp.csr_matrix(g1d)
        factory = ResolventFactory(g1)
        solver = LowRankKronSolver(
            g1,
            lambda s, r: -factory.solve(-s, np.asarray(r, complex)),
            lambda s, r: -factory.solve_transpose(
                -s, np.asarray(r, complex)
            ),
        )
        g2 = sp.lil_matrix((n, n * n))
        for _ in range(5):
            i, j = rng.integers(0, n, 2)
            row = rng.integers(0, n)
            g2[row, i * n + j] = rng.standard_normal()
            g2[row, j * n + i] = rng.standard_normal()
        g2 = sp.csr_matrix(g2)
        fpi = solver.solve_pi(g2, tol=1e-9)
        pi_dense = solve_pi_sylvester(g1d, g2.toarray())
        assert fpi.residual <= 1e-9 * fpi.rhs_norm
        scale = np.abs(pi_dense).max()
        assert np.abs(fpi.to_dense() - pi_dense).max() / scale < 1e-8

    def test_wide_g2_refuses(self):
        # Quadratic conductances on every node: G2's fiber count grows
        # with n, and the low-rank path must refuse rather than build a
        # huge right basis.
        system = low_rank_ladder(400, quad_nodes=400, sparse=True)
        solver = make_solver(system)
        with pytest.raises(NumericalError):
            solver.solve_pi(system.g2, max_seed=32)

    def test_workspace_pi_is_factored_sparse_dense_parity(self):
        ssys = low_rank_ladder(self.N, sparse=True)
        dsys = low_rank_ladder(self.N, sparse=False)
        ws_s = AssociatedWorkspace.for_system(ssys)
        ws_d = AssociatedWorkspace.for_system(dsys)
        assert ws_s.is_sparse and not ws_d.is_sparse
        assert isinstance(ws_s.pi, FactoredPi)
        assert isinstance(ws_d.pi, np.ndarray)
        scale = np.abs(ws_d.pi).max()
        assert np.abs(ws_s.pi.to_dense() - ws_d.pi).max() / scale < 1e-8


class TestDecoupledH2Sparse:
    N = 150

    def test_eval_and_chain_parity(self):
        ssys = low_rank_ladder(self.N, sparse=True)
        dsys = low_rank_ladder(self.N, sparse=False)
        dec_s = associated_h2_decoupled(ssys)
        dec_d = associated_h2_decoupled(dsys)
        assert dec_s.factored and not dec_d.factored
        for s in (0.2, 0.7 + 0.4j):
            es, ed = dec_s.eval(s), dec_d.eval(s)
            assert np.abs(es - ed).max() / np.abs(ed).max() < 1e-8
        bs = dec_s.basis_blocks(3)
        bd = dec_d.basis_blocks(3)
        for x, y in zip(bs, bd):
            assert np.abs(x - y).max() / np.abs(y).max() < 1e-7


class TestFactoredH3:
    def test_quadratic_h3_parity(self):
        ssys = low_rank_ladder(60, quad_nodes=6, sparse=True)
        dsys = low_rank_ladder(60, quad_nodes=6, sparse=False)
        r3s = associated_h3(ssys)
        r3d = associated_h3(dsys)
        assert isinstance(r3s, FactoredH3Realization)
        es, ed = r3s.eval(0.5), r3d.eval(0.5)
        assert np.abs(es - ed).max() / np.abs(ed).max() < 1e-7
        ms = r3s.moment_vectors(2, s0=0.3)
        md = r3d.moment_vectors(2, s0=0.3)
        assert np.abs(ms - md).max() / np.abs(md).max() < 1e-7

    def test_cubic_h3_parity(self):
        circ = varistor_surge_protector(n_states=120)
        dsys = circ.to_explicit()
        sparse_circ = CubicODE(
            sp.csr_matrix(circ.g1),
            circ.b,
            g3=circ.g3,
            mass=sp.csr_matrix(circ.mass),
            output=circ.output,
        )
        ssys = sparse_circ.to_explicit()
        r3s = associated_h3(ssys)
        r3d = associated_h3(dsys)
        assert isinstance(r3s, FactoredH3Realization)
        es, ed = r3s.eval(0.4), r3d.eval(0.4)
        assert np.abs(es - ed).max() / np.abs(ed).max() < 1e-8
        ms = r3s.moment_vectors(2, s0=0.0)
        md = r3d.moment_vectors(2, s0=0.0)
        assert np.abs(ms - md).max() / np.abs(md).max() < 1e-7


class TestH3WorkCounts:
    """The H3 chains solve only the b-block of the mirrored pair."""

    def test_decoupled_build_makes_four_lowrank_solves(self):
        # Two H2 Kronecker-chain steps, then the H3 b-block's tail
        # (k = 3) and head (k = 2); the mirrored c-block costs nothing.
        system = low_rank_ladder(200, sparse=True)
        ws = AssociatedWorkspace.for_system(system)
        mor = AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")
        mor.build_basis(system, workspace=ws)
        assert ws.lowrank_kron.stats["solves"] == 4

    @pytest.mark.parametrize("strategy", ["decoupled", "coupled"])
    def test_dense_build_leaves_no_lowrank_solver(self, strategy):
        system = low_rank_ladder(60, sparse=False)
        ws = AssociatedWorkspace.for_system(system)
        mor = AssociatedTransformMOR(orders=(3, 2, 1), strategy=strategy)
        mor.build_basis(system, workspace=ws)
        assert ws._lowrank is None
        assert ws.lowrank_state() is None


class TestFullOrderSparseMOR:
    """The acceptance criterion: orders=(q1, q2, q3) all > 0, decoupled,
    sparse, zero densifications."""

    def test_basis_matches_dense_at_n200(self):
        ssys = low_rank_ladder(200, sparse=True)
        dsys = low_rank_ladder(200, sparse=False)
        mor = AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")
        vs, _ = mor.build_basis(ssys)
        vd, _ = mor.build_basis(dsys)
        assert vs.shape == vd.shape
        overlap = np.linalg.svd(vs.conj().T @ vd, compute_uv=False)
        assert np.abs(overlap - 1.0).max() < 1e-8

    def test_n1024_poisoned_build(self, monkeypatch):
        system = low_rank_ladder(1024, sparse=True)
        forbid_densify(monkeypatch)
        mor = AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")
        basis, details = mor.build_basis(system)
        assert basis.shape[0] == 1024
        labels = {label for label, _, _ in details["blocks"]}
        assert {"H1", "H2-sub0", "H2-sub1", "H3"} <= labels

    def test_n2048_poisoned_end_to_end(self, monkeypatch):
        net = quadratic_rc_ladder_netlist(
            2048, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
        )
        system = net.compile(sparse=True)
        forbid_densify(monkeypatch)
        mor = AssociatedTransformMOR(orders=(2, 1, 1), strategy="decoupled")
        rom = mor.reduce(system)
        assert rom.system.n_states <= 2 + 2 * 1 + 1
        assert rom.full_order == 2048

    def test_coupled_strategy_still_guarded(self):
        system = low_rank_ladder(3000, sparse=True)
        from repro.errors import SystemStructureError

        mor = AssociatedTransformMOR(orders=(1, 1, 0), strategy="coupled")
        with pytest.raises(SystemStructureError):
            mor.build_basis(system)


class TestH3MemoryRegression:
    """Streamed G3 contraction: O(n·m³) peak, no (n³, m³) intermediate."""

    def test_h3_peak_memory_small(self):
        circ = varistor_surge_protector(n_states=120)
        system = circ.to_explicit()
        tracemalloc.start()
        res = single_tone_distortion(system, omega=0.7, amplitude=2.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.isfinite(res["hd3"])
        # The dense (n³, m³) accumulator alone was 84 MB at n = 120.
        assert peak < 16e6

    def test_varistor_distortion_at_n1000_under_500mb(self):
        circ = varistor_surge_protector(n_states=1024)
        assert circ.is_sparse
        system = circ.to_explicit()
        tracemalloc.start()
        res = single_tone_distortion(system, omega=0.7, amplitude=2.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.isfinite(res["hd3"]) and res["hd3"] > 0.0
        assert peak < 500e6
        # The real bound is far tighter: O(n·m³) plus the sparse LU.
        assert peak < 64e6

    def test_streamed_h3_matches_small_reference(self):
        # Same varistor circuit compiled small: streamed vs brute-force
        # dense contraction.
        circ = varistor_surge_protector(n_states=24)
        system = circ.to_explicit()
        from repro.volterra.evaluator import volterra_evaluator

        ev = volterra_evaluator(system)
        s1, s2, s3 = 0.3j, 0.5j, -0.2j
        h3 = ev.h3(s1, s2, s3)
        # Brute force: materialize the Kronecker triple.
        import itertools

        from repro.volterra.transfer import permutation_indices

        n, m = system.n_states, system.n_inputs
        triple = np.zeros((n**3, m**3), dtype=complex)
        for perm in itertools.permutations(range(3)):
            block = np.kron(
                ev.h1((s1, s2, s3)[perm[0]]),
                np.kron(
                    ev.h1((s1, s2, s3)[perm[1]]),
                    ev.h1((s1, s2, s3)[perm[2]]),
                ),
            )
            triple += block[:, permutation_indices(m, perm)]
        factory = ResolventFactory.for_system(system)
        ref = factory.solve(
            s1 + s2 + s3, 0.5 * (system.g3 @ triple)
        ) / 3.0
        assert np.abs(h3 - ref).max() / np.abs(ref).max() < 1e-12


class TestSuggestOrdersSparse:
    def test_sparse_cubic_matches_dense(self):
        from repro.mor.selection import suggest_orders

        circ = varistor_surge_protector(n_states=120)
        sparse_circ = CubicODE(
            sp.csr_matrix(circ.g1),
            circ.b,
            g3=circ.g3,
            mass=sp.csr_matrix(circ.mass),
            output=circ.output,
        )
        orders_s, hsv_s = suggest_orders(sparse_circ, probe=5)
        orders_d, _ = suggest_orders(circ, probe=5)
        assert orders_s == orders_d
        assert "H3" in hsv_s and hsv_s["H3"].size > 0

    def test_sparse_quadratic_runs(self):
        from repro.mor.selection import suggest_orders

        system = low_rank_ladder(300, sparse=True)
        orders, hsvs = suggest_orders(system, probe=5)
        assert all(isinstance(q, int) for q in orders)
        assert orders[0] >= 1 and orders[2] >= 1


class TestDecoupledFactoredMemory:
    def test_no_dense_kron_on_factored_path(self):
        system = low_rank_ladder(150, sparse=True)
        dec = associated_h2_decoupled(system)
        assert dec.factored
        # The (n², m²) Kronecker product must not be materialized.
        assert dec.bbs is None
        assert dec.n_cols == system.n_inputs ** 2
        assert dec.seed_linear.shape == (150, 1)


class TestPrimeDedup:
    def test_prime_h1_dedup_many_shifts(self):
        system = low_rank_ladder(64, sparse=True)
        from repro.volterra.evaluator import volterra_evaluator

        ev = volterra_evaluator(system)
        shifts = np.tile(1j * np.linspace(0.1, 1.0, 50), 4)
        ev.prime_h1(shifts)
        assert ev.stats["h1_solves"] == 50
        # Both orderings of a pair share one unordered-pair H2 entry.
        for _ in range(10):
            ev.h2(0.1j, 0.2j)
            ev.h2(0.2j, 0.1j)
        assert ev.stats["h2_solves"] == 1
