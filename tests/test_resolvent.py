"""Tests for the factorization-reuse solver subsystem.

Covers the :class:`ResolventFactory` (cached/batched resolvent solves,
dense and sparse paths, per-system memoization and invalidation), the
memoizing :class:`VolterraEvaluator` (kernels match independent
brute-force formulas, sub-kernels are solved once), the batched
frequency-sweep entry points, and chord-Newton transient stepping
(trajectories match the exact-Newton path while factorizing far less).
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import distortion_sweep, single_tone_distortion
from repro.errors import NumericalError, TaskCancelled, ValidationError
from repro.linalg import ResolventFactory
from repro.simulation import JacobianCache, newton_solve, simulate, sine_source
from repro.systems import QLDAE
from repro.volterra import (
    VolterraEvaluator,
    frequency_sweep,
    input_permutation,
    volterra_evaluator,
    volterra_h1,
    volterra_h2,
    volterra_h3,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7171)


# ---------------------------------------------------------------------------
# independent brute-force references (fresh dense solve per resolvent,
# mirroring the pre-cache evaluation path; SISO only)
# ---------------------------------------------------------------------------


def brute_h1(system, s):
    n = system.n_states
    return np.linalg.solve(
        s * np.eye(n) - system.g1, system.b.astype(complex)
    )


def brute_h2(system, s1, s2):
    n = system.n_states
    if system.g2 is None and system.d1 is None:
        return np.zeros(n, dtype=complex)
    h1a = brute_h1(system, s1)[:, 0]
    h1b = brute_h1(system, s2)[:, 0]
    inner = np.zeros(n, dtype=complex)
    if system.d1 is not None:
        inner += system.d1[0] @ (h1a + h1b)
    if system.g2 is not None:
        inner += system.g2 @ (np.kron(h1a, h1b) + np.kron(h1b, h1a))
    return 0.5 * np.linalg.solve((s1 + s2) * np.eye(n) - system.g1, inner)


def brute_h3(system, s1, s2, s3):
    n = system.n_states
    s_list = (s1, s2, s3)
    terms = np.zeros(n, dtype=complex)
    if system.g2 is not None:
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            h1_i = brute_h1(system, s_list[i])[:, 0]
            h2_jk = brute_h2(system, s_list[j], s_list[k])
            terms += system.g2 @ np.kron(h1_i, h2_jk)
            terms += system.g2 @ np.kron(h2_jk, h1_i)
    if system.d1 is not None:
        for si, sj in ((s1, s2), (s1, s3), (s2, s3)):
            terms += system.d1[0] @ brute_h2(system, si, sj)
    if system.g3 is not None:
        triple = np.zeros(n**3, dtype=complex)
        for perm in itertools.permutations(s_list):
            triple += np.kron(
                brute_h1(system, perm[0])[:, 0],
                np.kron(
                    brute_h1(system, perm[1])[:, 0],
                    brute_h1(system, perm[2])[:, 0],
                ),
            )
        terms += 0.5 * (system.g3 @ triple)
    return (
        np.linalg.solve((s1 + s2 + s3) * np.eye(n) - system.g1, terms) / 3.0
    )


# ---------------------------------------------------------------------------
# ResolventFactory
# ---------------------------------------------------------------------------


class TestResolventFactory:
    def test_dense_matches_direct_solve(self, rng):
        a = -1.5 * np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        factory = ResolventFactory(a)
        rhs = rng.standard_normal((6, 2))
        for s in (0.0, 1.0 + 0.5j, -0.3j, 2.5):
            expected = np.linalg.solve(
                s * np.eye(6) - a, rhs.astype(complex)
            )
            assert np.allclose(factory.solve(s, rhs), expected, atol=1e-11)

    def test_vector_rhs_shape(self, rng):
        a = -np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        factory = ResolventFactory(a)
        x = factory.solve(0.7j, np.ones(4))
        assert x.shape == (4,)

    def test_solve_many_matches_loop(self, rng):
        a = -2.0 * np.eye(5) + 0.4 * rng.standard_normal((5, 5))
        factory = ResolventFactory(a)
        rhs = rng.standard_normal((5, 3))
        shifts = np.array([0.3, 1j, 1.0 - 2.0j, 0.0])
        batch = factory.solve_many(shifts, rhs)
        assert batch.shape == (4, 5, 3)
        for idx, s in enumerate(shifts):
            assert np.allclose(batch[idx], factory.solve(s, rhs), atol=1e-12)

    def test_solve_many_vector_rhs(self, rng):
        a = -np.eye(3)
        factory = ResolventFactory(a)
        batch = factory.solve_many([1.0, 2.0], np.ones(3))
        assert batch.shape == (2, 3)
        assert np.allclose(batch[0], 0.5 * np.ones(3))

    def test_sparse_path_matches_dense(self, rng):
        dense = -2.0 * np.eye(8) + 0.2 * rng.standard_normal((8, 8))
        dense[np.abs(dense) < 0.1] = 0.0
        np.fill_diagonal(dense, -2.0)
        sparse = sp.csr_matrix(dense)
        f_dense = ResolventFactory(dense)
        f_sparse = ResolventFactory(sparse)
        assert f_sparse.schur is None
        rhs = rng.standard_normal((8, 2))
        for s in (0.5, 1.0 + 1.0j):
            assert np.allclose(
                f_sparse.solve(s, rhs), f_dense.solve(s, rhs), atol=1e-10
            )
        batch = f_sparse.solve_many([0.5, 1.0 + 1.0j], rhs)
        assert np.allclose(batch[0], f_dense.solve(0.5, rhs), atol=1e-10)

    def test_shift_at_eigenvalue_raises(self):
        factory = ResolventFactory(np.diag([-1.0, -2.0]))
        with pytest.raises(NumericalError):
            factory.solve(-1.0, np.ones(2))
        with pytest.raises(NumericalError):
            factory.solve_columns([0.5j, -2.0], np.ones((2, 2)))

    def test_solve_columns_bit_identical_to_solve(self, rng):
        """Column k equals solve(shift k) to the bit in any batch: memoized
        kernel columns must not depend on the grid that computed them."""
        a = -2.0 * np.eye(9) + 0.4 * rng.standard_normal((9, 9))
        factory = ResolventFactory(a)
        shifts = 1j * np.linspace(0.1, 2.0, 13)
        rhs = rng.standard_normal((9, 13)) + 1j * rng.standard_normal((9, 13))
        full = factory.solve_columns(shifts, rhs)
        assert full.shape == (9, 13)
        for idx, s in enumerate(shifts):
            single = factory.solve(s, rhs[:, idx : idx + 1])[:, 0]
            assert np.array_equal(full[:, idx], single)
        for lo, hi in ((0, 1), (3, 8), (5, 13)):
            part = factory.solve_columns(shifts[lo:hi], rhs[:, lo:hi])
            assert np.array_equal(part, full[:, lo:hi])

    def test_solve_columns_sparse_matches_dense(self, rng):
        dense = -2.0 * np.eye(8) + 0.2 * rng.standard_normal((8, 8))
        dense[np.abs(dense) < 0.1] = 0.0
        np.fill_diagonal(dense, -2.0)
        f_dense = ResolventFactory(dense)
        f_sparse = ResolventFactory(sp.csr_matrix(dense))
        shifts = [0.5, 1.0 + 1.0j, 0.3j]
        rhs = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        assert np.allclose(
            f_sparse.solve_columns(shifts, rhs),
            f_dense.solve_columns(shifts, rhs),
            atol=1e-10,
        )
        with pytest.raises(ValidationError):
            f_dense.solve_columns(shifts, rhs[:, :2])

    def test_solve_columns_sparse_polls_cancel_per_shift(self):
        dense = -2.0 * np.eye(6) + np.diag(np.full(5, 0.3), 1)
        factory = ResolventFactory(sp.csr_matrix(dense))
        polls = []

        def cancel():
            polls.append(None)
            return len(polls) > 2

        with pytest.raises(TaskCancelled):
            factory.solve_columns(
                [0.1j, 0.2j, 0.3j, 0.4j], np.ones((6, 4)), cancel=cancel
            )
        # Two shifts factored before the third poll cancelled the rest.
        assert len(polls) == 3
        assert factory.sparse_lu_stats["complex"] == 2

    def test_for_system_caches_and_invalidates(self, small_qldae):
        f1 = ResolventFactory.for_system(small_qldae)
        f2 = ResolventFactory.for_system(small_qldae)
        assert f1 is f2
        # Rebinding the state matrix must invalidate the cache.
        small_qldae.g1 = small_qldae.g1 * 2.0
        f3 = ResolventFactory.for_system(small_qldae)
        assert f3 is not f1
        expected = np.linalg.solve(
            1.0 * np.eye(small_qldae.n_states) - small_qldae.g1,
            small_qldae.b.astype(complex),
        )
        assert np.allclose(f3.solve(1.0, small_qldae.b), expected)


# ---------------------------------------------------------------------------
# VolterraEvaluator
# ---------------------------------------------------------------------------


class TestVolterraEvaluator:
    def test_kernels_match_brute_force(self, small_qldae):
        ev = volterra_evaluator(small_qldae)
        s = (0.4 + 0.2j, 1.1 - 0.7j, 0.9)
        assert np.allclose(
            ev.h1(s[0]), brute_h1(small_qldae, s[0]), atol=1e-11
        )
        assert np.allclose(
            ev.h2(s[0], s[1])[:, 0],
            brute_h2(small_qldae, s[0], s[1]),
            atol=1e-11,
        )
        assert np.allclose(
            ev.h3(*s)[:, 0], brute_h3(small_qldae, *s), atol=1e-10
        )

    def test_cubic_h3_matches_brute_force(self, small_cubic):
        s = (0.5, 1.0, 1.5)
        assert np.allclose(
            volterra_h3(small_cubic, *s)[:, 0],
            brute_h3(small_cubic, *s),
            atol=1e-11,
        )

    def test_h1_memoized(self, small_qldae):
        ev = VolterraEvaluator(small_qldae)
        a = ev.h1(0.5j)
        solves = ev.stats["h1_solves"]
        b = ev.h1(0.5j)
        assert ev.stats["h1_solves"] == solves
        assert ev.stats["h1_hits"] == 1
        assert np.allclose(a, b)

    def test_h3_reuses_subkernels(self, small_qldae):
        """A repeated H3 evaluation must not trigger any new solves."""
        ev = VolterraEvaluator(small_qldae)
        first = ev.h3(0.2j, 0.5j, 0.9j)
        h1_solves = ev.stats["h1_solves"]
        h2_solves = ev.stats["h2_solves"]
        second = ev.h3(0.2j, 0.5j, 0.9j)
        assert ev.stats["h1_solves"] == h1_solves
        assert ev.stats["h2_solves"] == h2_solves
        assert np.allclose(first, second)
        # Three distinct frequencies -> exactly three H1 solves.
        assert h1_solves == 3

    def test_h2_symmetric_key_single_solve(self, miso_qldae):
        ev = VolterraEvaluator(miso_qldae)
        s1, s2 = 0.6, 1.3 + 0.5j
        h_a = ev.h2(s1, s2)
        assert ev.stats["h2_solves"] == 1
        h_b = ev.h2(s2, s1)
        assert ev.stats["h2_solves"] == 1
        assert ev.stats["h2_hits"] == 1
        swap = input_permutation(miso_qldae.n_inputs, (1, 0)).toarray()
        assert np.allclose(h_a, h_b @ swap, atol=1e-12)

    def test_prime_h1_matches_individual(self, small_qldae):
        ev = VolterraEvaluator(small_qldae)
        shifts = [0.3j, 1.0 + 0.5j, -0.3j]
        ev.prime_h1(shifts)
        assert ev.stats["h1_solves"] == 3
        for s in shifts:
            cached = ev.h1(s)
            assert np.allclose(cached, brute_h1(small_qldae, s), atol=1e-11)
        # All served from cache, no further solves.
        assert ev.stats["h1_solves"] == 3

    def test_clear_cache_recomputes(self, small_qldae):
        ev = VolterraEvaluator(small_qldae)
        ev.h1(0.5j)
        ev.clear_cache()
        ev.h1(0.5j)
        assert ev.stats["h1_solves"] == 2

    def test_system_rebind_invalidates(self, small_qldae):
        ev1 = volterra_evaluator(small_qldae)
        before = ev1.h1(1.0)
        small_qldae.g1 = small_qldae.g1 * 0.5
        ev2 = volterra_evaluator(small_qldae)
        assert ev2 is not ev1
        after = ev2.h1(1.0)
        assert np.allclose(after, brute_h1(small_qldae, 1.0), atol=1e-11)
        assert not np.allclose(before, after)

    def test_workspace_invalidated_on_g2_rebind(self, small_qldae_no_d1):
        """Rebinding any kernel-defining matrix must drop the cached
        workspace (a stale Π would silently corrupt later bases)."""
        from repro.volterra import AssociatedWorkspace

        ws1 = AssociatedWorkspace.for_system(small_qldae_no_d1)
        pi1 = ws1.pi.copy()
        small_qldae_no_d1.g2 = sp.csr_matrix(
            0.5 * small_qldae_no_d1.g2.toarray()
        )
        ws2 = AssociatedWorkspace.for_system(small_qldae_no_d1)
        assert ws2 is not ws1
        assert not np.allclose(ws2.pi, pi1)
        assert np.allclose(ws2.pi, 0.5 * pi1)

    def test_evaluator_shared_across_public_api(self, small_qldae):
        """volterra_h1/h2/h3 and the distortion metrics share one cache."""
        volterra_h1(small_qldae, 0.4j)
        volterra_h2(small_qldae, 0.4j, 0.4j)
        ev = volterra_evaluator(small_qldae)
        h1_solves = ev.stats["h1_solves"]
        # h3 at the same frequency reuses H1(0.4j) and H2(0.4j, 0.4j).
        volterra_h3(small_qldae, 0.4j, 0.4j, 0.4j)
        assert ev.stats["h1_solves"] == h1_solves


# ---------------------------------------------------------------------------
# batched sweeps
# ---------------------------------------------------------------------------


class TestBatchedSweeps:
    def test_frequency_sweep_matches_pointwise(self, small_qldae):
        omegas = np.linspace(0.1, 3.0, 7)
        resp = frequency_sweep(small_qldae, omegas)
        assert resp.shape == (7, 1, 1)
        for idx, w in enumerate(omegas):
            expected = small_qldae.output @ brute_h1(small_qldae, 1j * w)
            assert np.allclose(resp[idx], expected, atol=1e-11)

    def test_distortion_sweep_matches_brute_force(self, small_qldae):
        omegas = np.linspace(0.2, 2.0, 9)
        _, hd2, hd3 = distortion_sweep(small_qldae, omegas, amplitude=0.3)
        c = small_qldae.output
        for idx, w in enumerate(omegas):
            jw = 1j * w
            h1 = abs(complex((c @ brute_h1(small_qldae, jw))[0, 0]))
            h2 = abs(complex((c @ brute_h2(small_qldae, jw, jw))[0]))
            h3 = abs(complex((c @ brute_h3(small_qldae, jw, jw, jw))[0]))
            fund = 0.3 * h1
            assert np.isclose(hd2[idx], 0.5 * 0.3**2 * h2 / fund, rtol=1e-8)
            assert np.isclose(hd3[idx], 0.25 * 0.3**3 * h3 / fund, rtol=1e-8)

    def test_sweep_batches_h1_solves(self, small_qldae):
        omegas = np.linspace(0.2, 2.0, 5)
        distortion_sweep(small_qldae, omegas)
        ev = volterra_evaluator(small_qldae)
        # +jω for 5 grid points -> exactly 5 first-order solves (HD2/HD3
        # only touch sum-type kernels, so no −jω seeds are needed).
        assert ev.stats["h1_solves"] == 5
        # A second sweep over the same grid is served from the cache.
        distortion_sweep(small_qldae, omegas)
        assert ev.stats["h1_solves"] == 5

    def test_single_point_consistency(self, small_qldae):
        omegas = np.array([0.7])
        _, hd2, hd3 = distortion_sweep(small_qldae, omegas, amplitude=0.1)
        metrics = single_tone_distortion(small_qldae, 0.7, amplitude=0.1)
        assert np.isclose(hd2[0], metrics["hd2"], rtol=1e-12)
        assert np.isclose(hd3[0], metrics["hd3"], rtol=1e-12)


# ---------------------------------------------------------------------------
# chord-Newton
# ---------------------------------------------------------------------------


class TestChordNewton:
    def test_newton_solve_with_cache_matches(self):
        res = lambda x: np.array([x[0] ** 2 - 4.0])
        jac = lambda x: np.array([[2.0 * x[0]]])
        cache = JacobianCache()
        x_chord, _ = newton_solve(res, jac, np.array([3.0]), jac_cache=cache)
        x_exact, _ = newton_solve(res, jac, np.array([3.0]))
        assert abs(x_chord[0] - 2.0) < 1e-9
        assert abs(x_chord[0] - x_exact[0]) < 1e-9
        assert cache.factorizations >= 1

    def test_cache_persists_across_calls(self):
        """A second solve from a nearby start reuses the factorization."""
        res = lambda x: np.array([np.tanh(x[0]) - 0.1])
        jac = lambda x: np.array([[1.0 / np.cosh(x[0]) ** 2]])
        cache = JacobianCache()
        newton_solve(res, jac, np.array([0.5]), jac_cache=cache)
        factored = cache.factorizations
        newton_solve(res, jac, np.array([0.4]), jac_cache=cache)
        assert cache.reuses > 0
        assert cache.factorizations >= factored  # may or may not refresh

    def test_transient_trajectories_match(self, small_qldae):
        u = sine_source(amplitude=0.2, frequency=0.15)
        chord = simulate(small_qldae, u, 8.0, 0.05, reuse_jacobian=True)
        exact = simulate(small_qldae, u, 8.0, 0.05, reuse_jacobian=False)
        assert np.abs(chord.states - exact.states).max() < 1e-8
        assert exact.jacobian_factorizations is None
        assert chord.jacobian_factorizations is not None
        # The point of chord Newton: far fewer LU factorizations than
        # Newton iterations (exact Newton factors once per iteration).
        assert chord.jacobian_factorizations < exact.newton_iterations

    def test_backward_euler_also_matches(self, small_qldae):
        u = sine_source(amplitude=0.15, frequency=0.2)
        chord = simulate(
            small_qldae, u, 4.0, 0.1, theta=1.0, reuse_jacobian=True
        )
        exact = simulate(
            small_qldae, u, 4.0, 0.1, theta=1.0, reuse_jacobian=False
        )
        assert np.abs(chord.states - exact.states).max() < 1e-8

    def test_strongly_nonlinear_still_converges(self, rng):
        """A stiffer quadratic system exercises the refresh path."""
        n = 4
        g1 = -np.diag([1.0, 3.0, 5.0, 8.0])
        g2 = 0.8 * rng.standard_normal((n, n * n))
        system = QLDAE(g1, np.ones(n), g2=g2, output=np.eye(n)[0])
        u = sine_source(amplitude=0.4, frequency=0.3)
        chord = simulate(system, u, 5.0, 0.02, reuse_jacobian=True)
        exact = simulate(system, u, 5.0, 0.02, reuse_jacobian=False)
        assert np.abs(chord.states - exact.states).max() < 1e-8
        assert chord.jacobian_factorizations < chord.newton_iterations
