"""Grid-batched sum-type Volterra kernels behind every HD2/HD3 sweep.

:meth:`VolterraEvaluator.sum_kernels` returns ``H1(s)``, ``H2(s, s)``
and ``H3(s, s, s)`` for a whole frequency grid at once.  These tests pin
it to the general per-point kernels, pin the work a sweep does (solves,
sparse LUs, coefficient contractions, not wall time), and check its
behaviour under cancellation and concurrent use.
"""

import sys
import threading

import numpy as np
import pytest

import repro.volterra.evaluator as evaluator_mod
from repro.analysis import distortion_sweep, single_tone_distortion
from repro.circuits import (
    nonlinear_transmission_line,
    quadratic_rc_ladder_netlist,
    varistor_surge_protector,
)
from repro.errors import SystemStructureError, TaskCancelled
from repro.mor import AssociatedTransformMOR
from repro.systems import QLDAE, PolynomialODE
from repro.volterra import VolterraEvaluator, volterra_evaluator

OMEGAS = np.linspace(0.05, 0.5, 7)
K = OMEGAS.size


def dense_ladder():
    return quadratic_rc_ladder_netlist(n_nodes=12).compile().to_explicit()


def sparse_ladder():
    return (
        quadratic_rc_ladder_netlist(n_nodes=64)
        .compile(sparse=True)
        .to_explicit()
    )


def ladder_rom():
    system = quadratic_rc_ladder_netlist(n_nodes=12).compile()
    rom = AssociatedTransformMOR(orders=(3, 2, 0)).reduce(system)
    return rom.system.to_explicit()


def lifted_line():
    """Voltage-driven lifted transmission line: ``D1 ≠ 0``."""
    system = nonlinear_transmission_line(n_nodes=6).quadratic_linearize()
    return system.to_explicit()


def varistor():
    """Cubic varistor clamp: ``G3`` only, so ``H2`` is structurally 0."""
    return varistor_surge_protector(n_states=14).to_explicit()


def quadratic_cubic():
    """A small system with ``G2``, ``G3`` and ``D1`` all present."""
    rng = np.random.default_rng(4)
    n = 4
    return PolynomialODE(
        -1.5 * np.eye(n) + 0.3 * rng.standard_normal((n, n)),
        rng.standard_normal(n),
        g2=0.2 * rng.standard_normal((n, n * n)),
        g3=0.1 * rng.standard_normal((n, n**3)),
        d1=0.2 * rng.standard_normal((n, n)),
        output=np.eye(n)[0],
    )


def assert_close(actual, expected):
    np.testing.assert_allclose(
        actual, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
    )


# ---------------------------------------------------------------------------
# parity with the general kernels
# ---------------------------------------------------------------------------


class TestParity:
    @pytest.mark.parametrize(
        "build",
        [dense_ladder, sparse_ladder, lifted_line, varistor, quadratic_cubic],
        ids=["ladder-dense", "ladder-csr", "lifted-line-d1", "varistor-g3",
             "g2-g3-d1"],
    )
    def test_matches_general_kernels(self, build):
        system = build()
        shifts = 1j * OMEGAS
        h1, h2, h3 = VolterraEvaluator(system).sum_kernels(shifts)
        assert h1.shape == h2.shape == h3.shape == (system.n_states, K)
        general = VolterraEvaluator(system)
        for col, s in enumerate(shifts):
            assert_close(h1[:, col], general.h1(s)[:, 0])
            assert_close(h2[:, col], general.h2(s, s)[:, 0])
            assert_close(h3[:, col], general.h3(s, s, s)[:, 0])

    @pytest.mark.parametrize(
        "build", [ladder_rom, sparse_ladder, lifted_line, quadratic_cubic],
        ids=["rom", "ladder-csr", "lifted-line-d1", "g2-g3-d1"],
    )
    def test_columns_do_not_depend_on_the_batch(self, build):
        # Memoized columns serve later sweeps over other grids, so a
        # point's kernels must come out the same in any batch.
        system = build()
        shifts = 1j * OMEGAS
        whole = VolterraEvaluator(system).sum_kernels(shifts)
        part = VolterraEvaluator(system).sum_kernels(shifts[2:5])
        for block, sub in zip(whole, part):
            assert np.array_equal(block[:, 2:5], sub)

    def test_systems_exercise_their_terms(self):
        assert lifted_line().d1 is not None
        assert dense_ladder().d1 is None
        assert varistor().g2 is None and varistor().g3 is not None
        assert sparse_ladder().is_sparse

    def test_varistor_hd2_is_exactly_zero(self):
        _, hd2, hd3 = distortion_sweep(varistor(), OMEGAS, amplitude=0.5)
        assert np.all(hd2 == 0.0)
        assert np.all(hd3 > 0.0)

    def test_output_blind_to_h1_gives_inf(self):
        # The input drives state 0; the output sees state 1, which only
        # the quadratic term x0² reaches, so C·H1 = 0 exactly.
        g2 = np.zeros((2, 4))
        g2[1, 0] = 0.5
        system = QLDAE(
            np.diag([-1.0, -2.0]), np.array([1.0, 0.0]), g2=g2,
            output=np.array([0.0, 1.0]),
        )
        _, hd2, hd3 = distortion_sweep(system, [0.3, 0.7])
        assert np.all(np.isinf(hd2)) and np.all(np.isinf(hd3))
        metrics = single_tone_distortion(system, 0.3)
        assert metrics["fundamental"] == 0.0
        assert metrics["second_harmonic"] > 0.0
        assert np.isinf(metrics["hd2"]) and np.isinf(metrics["hd3"])

    @pytest.mark.parametrize("omega", [0.05, 0.3, 0.5])
    def test_single_tone_bit_identical_to_one_point_sweep(self, omega):
        metrics = single_tone_distortion(ladder_rom(), omega, 0.05)
        _, hd2, hd3 = distortion_sweep(ladder_rom(), [omega], 0.05)
        assert metrics["hd2"] == hd2[0] and metrics["hd3"] == hd3[0]

    def test_memo_shared_with_general_kernels(self):
        system = ladder_rom()
        ev = VolterraEvaluator(system)
        shifts = 1j * OMEGAS
        ev.h1(shifts[0])
        ev.h2(shifts[1], shifts[1])
        assert (ev.stats["h1_solves"], ev.stats["h2_solves"]) == (2, 1)
        ev.sum_kernels(shifts)
        assert (ev.stats["h1_solves"], ev.stats["h2_solves"]) == (K, K)
        for s in shifts:
            ev.h1(s)
            ev.h2(s, s)
        assert (ev.stats["h1_solves"], ev.stats["h2_solves"]) == (K, K)

    def test_mimo_refused(self, miso_qldae):
        with pytest.raises(SystemStructureError):
            VolterraEvaluator(miso_qldae).sum_kernels([0.1j])


# ---------------------------------------------------------------------------
# work done per sweep
# ---------------------------------------------------------------------------


class TestWork:
    @pytest.mark.parametrize("build", [ladder_rom, sparse_ladder],
                             ids=["rom", "sparse-full"])
    def test_one_solve_per_point_per_order(self, build):
        system = build()
        ev = volterra_evaluator(system)
        distortion_sweep(system, OMEGAS)
        assert ev.stats == {
            "h1_solves": K, "h1_hits": 0,
            "h2_solves": K, "h2_hits": 0,
            "h3_evals": K, "h3_hits": 0,
        }
        # A repeat sweep computes no kernel column again, H3 included.
        distortion_sweep(system, OMEGAS)
        assert ev.stats == {
            "h1_solves": K, "h1_hits": K,
            "h2_solves": K, "h2_hits": K,
            "h3_evals": K, "h3_hits": K,
        }

    def test_rom_is_small(self):
        assert ladder_rom().n_states <= 10

    def test_sparse_sweep_factors_three_shifts_per_point(self):
        system = sparse_ladder()
        lu = volterra_evaluator(system).factory.sparse_lu_stats
        distortion_sweep(system, OMEGAS)
        assert lu["complex"] == 3 * K
        assert lu["real"] == 0
        distortion_sweep(system, OMEGAS)
        assert lu["complex"] == 3 * K  # every shift's LU is cached

    @pytest.mark.parametrize("points", [1, 5, 12])
    def test_contractions_independent_of_grid(self, monkeypatch, points):
        calls = []
        real = evaluator_mod.sparse_kron_apply

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluator_mod, "sparse_kron_apply", counting)
        distortion_sweep(quadratic_cubic(), np.linspace(0.1, 1.0, points))
        # G2 once for H2(s, s); G2 twice and G3 once for H3(s, s, s).
        assert sorted(calls) == [2, 2, 2, 3]


# ---------------------------------------------------------------------------
# cancellation and concurrency
# ---------------------------------------------------------------------------


class TestCancelAndThreads:
    @pytest.mark.parametrize("build", [ladder_rom, sparse_ladder],
                             ids=["rom", "sparse-full"])
    def test_cancel_at_every_poll_leaves_memo_valid(self, build):
        _, ref2, ref3 = distortion_sweep(build(), OMEGAS)
        polls = []
        distortion_sweep(
            build(), OMEGAS, cancel=lambda: polls.append(None) or False
        )
        # One poll before each order; the sparse path also polls before
        # every per-shift factorization.
        expected = 3 if build is ladder_rom else 3 + 3 * K
        assert len(polls) == expected
        for fire_at in range(1, len(polls) + 1):
            system = build()
            seen = []

            def cancel():
                seen.append(None)
                return len(seen) >= fire_at

            with pytest.raises(TaskCancelled):
                distortion_sweep(system, OMEGAS, cancel=cancel)
            _, hd2, hd3 = distortion_sweep(system, OMEGAS)
            assert np.array_equal(hd2, ref2) and np.array_equal(hd3, ref3)
            stats = volterra_evaluator(system).stats
            # Nothing solved before the cancel was solved twice.
            assert stats["h1_solves"] == K and stats["h2_solves"] == K

    def test_threads_sharing_one_evaluator_match_solo(self):
        _, solo2, solo3 = distortion_sweep(ladder_rom(), OMEGAS)
        shared = ladder_rom()
        barrier = threading.Barrier(4)
        results = [None] * 4
        errors = []

        def worker(index):
            try:
                barrier.wait(10)
                for _ in range(5):
                    results[index] = distortion_sweep(shared, OMEGAS)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert errors == []
        for _, hd2, hd3 in results:
            assert np.array_equal(hd2, solo2)
            assert np.array_equal(hd3, solo3)
        stats = volterra_evaluator(shared).stats
        # Racing threads may duplicate a solve, but the first insert wins.
        assert stats["h1_solves"] == K and stats["h2_solves"] == K
        assert stats["h3_evals"] == K


# ---------------------------------------------------------------------------
# the H3(s, s, s) memo
# ---------------------------------------------------------------------------


class TestH3Memo:
    @pytest.mark.parametrize(
        "build", [ladder_rom, sparse_ladder, lifted_line, quadratic_cubic],
        ids=["rom", "ladder-csr", "lifted-line-d1", "g2-g3-d1"],
    )
    @pytest.mark.parametrize("second", ["overlapping", "disjoint", "repeat"])
    def test_hit_is_the_fresh_column(self, build, second):
        system = build()
        first = 1j * OMEGAS
        other = {
            # Shares three points, at other positions in the grid.
            "overlapping": 1j * np.concatenate(
                [[0.71], OMEGAS[4:], [0.83, 0.02]]
            ),
            "disjoint": 1j * np.linspace(0.6, 0.9, 4),
            "repeat": first[::-1],
        }[second]
        ev = VolterraEvaluator(system)
        ev.sum_kernels(first)
        before = dict(ev.stats)
        memo = ev.sum_kernels(other)
        fresh = VolterraEvaluator(system).sum_kernels(other)
        for got, want in zip(memo, fresh):
            assert np.array_equal(got, want)
        shared = int(np.isin(other, first).sum())
        assert ev.stats["h3_hits"] - before["h3_hits"] == shared
        assert ev.stats["h3_evals"] - before["h3_evals"] == other.size - shared

    def test_repeat_grid_computes_nothing(self, monkeypatch):
        system = ladder_rom()
        ev = VolterraEvaluator(system)
        ev.sum_kernels(1j * OMEGAS)
        calls = []
        monkeypatch.setattr(
            evaluator_mod, "sparse_kron_apply",
            lambda *args, **kwargs: calls.append(None),
        )
        monkeypatch.setattr(
            ev.factory, "solve_columns",
            lambda *args, **kwargs: calls.append(None),
        )
        ev.sum_kernels(1j * OMEGAS[::2])
        assert calls == []

    def test_clear_cache_drops_h3(self):
        ev = VolterraEvaluator(ladder_rom())
        ev.sum_kernels(1j * OMEGAS)
        ev.clear_cache()
        ev.sum_kernels(1j * OMEGAS)
        assert ev.stats["h3_evals"] == 2 * K and ev.stats["h3_hits"] == 0

    def test_lru_bound(self):
        ev = VolterraEvaluator(ladder_rom(), max_entries=4)
        shifts = 1j * OMEGAS
        h3 = ev.sum_kernels(shifts)[2]
        assert h3.shape[1] == K  # the answer is whole past the bound
        assert len(ev._h3_cache) == 4
        assert list(ev._h3_cache) == [(s, s, s) for s in shifts[-4:]]
        ev.sum_kernels(shifts[-4:])
        assert (ev.stats["h3_evals"], ev.stats["h3_hits"]) == (K, 4)
        ev.sum_kernels(shifts[:1])  # evicted: computed again
        assert (ev.stats["h3_evals"], ev.stats["h3_hits"]) == (K + 1, 4)
        assert len(ev._h3_cache) == 4

    def test_general_h3_does_not_share_the_memo(self):
        ev = VolterraEvaluator(quadratic_cubic())
        s = 0.3j
        ev.sum_kernels([s])
        ev.h3(s, s, s)
        assert ev.stats["h3_evals"] == 2 and ev.stats["h3_hits"] == 0

    def test_threads_sharing_one_evaluator(self):
        shifts = 1j * OMEGAS
        solo = VolterraEvaluator(ladder_rom()).sum_kernels(shifts)
        shared = VolterraEvaluator(ladder_rom())
        barrier = threading.Barrier(4)
        results = [None] * 4
        errors = []

        def worker(index):
            try:
                barrier.wait(10)
                for _ in range(5):
                    results[index] = shared.sum_kernels(shifts)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the memo's critical paths
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for kernels in results:
            for got, want in zip(kernels, solo):
                assert np.array_equal(got, want)
        # Racing threads may compute a column twice; one insert wins.
        assert shared.stats["h3_evals"] == K
        assert shared.stats["h3_evals"] + shared.stats["h3_hits"] >= K
        assert len(shared._h3_cache) == K
