"""Execution record, cache races, sparse fast paths.

Solves run serially on the calling thread; the primitive test pins
that a stale environment naming the removed thread/process backends
changes nothing.  The cache-race tests hammer the shared memo layers
from many threads (as the serve daemon's handler threads do) and
assert that exactly one factorization/evaluator survives and every
caller gets correct values.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.distortion import (
    distortion_sweep,
    single_tone_distortion,
    two_tone_intermodulation,
)
from repro.errors import NumericalError
from repro.linalg.resolvent import ResolventFactory
from repro.systems import PolynomialODE
from repro.volterra.evaluator import VolterraEvaluator, volterra_evaluator

from conftest import make_stable_matrix

TESTS_DIR = Path(__file__).resolve().parent
REPO_SRC = str(TESTS_DIR.parent / "src")


def _sparse_ladder(n, rng):
    """A stable sparse tridiagonal system (CSR g1) with quadratic term."""
    main = -2.0 - 0.1 * rng.random(n)
    off = 0.5 * np.ones(n - 1)
    g1 = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    rows = rng.integers(0, n, size=3 * n)
    cols = rng.integers(0, n * n, size=3 * n)
    vals = 0.05 * rng.standard_normal(3 * n)
    g2 = sp.csr_matrix((vals, (rows, cols)), shape=(n, n * n))
    b = rng.standard_normal(n)
    return PolynomialODE(g1, b, g2=g2, output=np.eye(n)[0])


def _ladder_sweep():
    """HD2/HD3 bytes of a fixed sparse-ladder distortion sweep."""
    system = _sparse_ladder(80, np.random.default_rng(7))
    _, hd2, hd3 = distortion_sweep(system, np.linspace(0.3, 1.5, 7), 0.3)
    return hd2.tobytes().hex(), hd3.tobytes().hex()


# ---------------------------------------------------------------------------
# serial execution
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_stale_backend_environment_runs_serial(self):
        # A fresh interpreter: inside this one the engine may already
        # have been imported before the environment was touched.
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(TESTS_DIR)!r})\n"
            "from repro import engine\n"
            "from test_engine import _ladder_sweep\n"
            "print(json.dumps({'stats': engine.worker_stats(),\n"
            "                  'sweep': _ladder_sweep()}))\n"
        )
        env = dict(os.environ)
        env.update(
            PYTHONPATH=REPO_SRC, REPRO_BACKEND="process", REPRO_WORKERS="4"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        child = json.loads(result.stdout)
        assert child["stats"] == {"backend": "serial", "workers": 1}
        assert tuple(child["sweep"]) == _ladder_sweep()


# ---------------------------------------------------------------------------
# cache races
# ---------------------------------------------------------------------------


def _hammer(fn, n_threads=8, repeats=5):
    """Run *fn* concurrently from many threads; re-raise any failure."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def worker():
        try:
            barrier.wait()
            for _ in range(repeats):
                fn()
        except BaseException as exc:  # noqa: BLE001 - test harness
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestCacheRaces:
    def test_for_system_single_factory(self, rng):
        a = make_stable_matrix(rng, 12)

        class Holder:
            g1 = a

        holder = Holder()
        seen = []

        def grab():
            seen.append(ResolventFactory.for_system(holder))

        _hammer(grab)
        assert len({id(f) for f in seen}) == 1
        assert seen[0].matrix is a

    def test_volterra_evaluator_memo_single_instance(self, small_qldae):
        explicit = small_qldae.to_explicit()
        seen = []

        def grab():
            seen.append(volterra_evaluator(explicit))

        _hammer(grab)
        assert len({id(e) for e in seen}) == 1

    def test_evaluator_h1_h2_race_correctness(self, small_qldae):
        explicit = small_qldae.to_explicit()
        evaluator = VolterraEvaluator(explicit)
        shifts = 1j * np.linspace(0.2, 1.4, 6)
        expected_h1 = {complex(s): evaluator.h1(s) for s in shifts}
        expected_h2 = {
            complex(s): evaluator.h2(s, s) for s in shifts
        }
        fresh = VolterraEvaluator(explicit)

        def worker_pass():
            for s in shifts:
                assert np.abs(fresh.h1(s) - expected_h1[complex(s)]).max() \
                    <= 1e-12
                assert np.abs(
                    fresh.h2(s, s) - expected_h2[complex(s)]
                ).max() <= 1e-12

        _hammer(worker_pass)
        # Despite 8 threads x 5 repeats, the memo served every repeat
        # after (at most one duplicated) cold solve per shift.
        assert len(fresh._h1_cache) == len(shifts)
        assert len(fresh._h2_cache) == len(shifts)

    def test_sparse_lu_cache_race(self, rng):
        system = _sparse_ladder(50, rng)
        factory = ResolventFactory(system.g1)
        rhs = rng.standard_normal(50)
        shifts = [0.5 + 0.1 * k + 1j * (k % 3) for k in range(6)]
        expected = {s: factory.solve(s, rhs) for s in shifts}
        fresh = ResolventFactory(system.g1)

        def worker_pass():
            for s in shifts:
                assert np.abs(fresh.solve(s, rhs) - expected[s]).max() \
                    <= 1e-12

        _hammer(worker_pass)
        assert len(fresh._lu_cache) == len(set(complex(s) for s in shifts))


# ---------------------------------------------------------------------------
# real-dtype sparse fast path
# ---------------------------------------------------------------------------


class TestRealShiftFastPath:
    def test_real_shift_uses_real_lu(self, rng):
        system = _sparse_ladder(40, rng)
        factory = ResolventFactory(system.g1)
        rhs = rng.standard_normal(40)
        x_real = factory.solve(0.0, rhs)
        counts = factory.sparse_lu_stats
        assert (counts["real"], counts["complex"]) == (1, 0)
        x_cplx = factory.solve(0.3 + 0.7j, rhs)
        counts = factory.sparse_lu_stats
        assert (counts["real"], counts["complex"]) == (1, 1)
        # parity with a from-scratch complex-cast factory
        reference = ResolventFactory(system.g1.astype(complex))
        counts = reference.sparse_lu_stats
        assert (counts["real"], counts["complex"]) == (0, 0)
        assert np.abs(x_real - reference.solve(0.0, rhs)).max() <= 1e-12
        assert reference.sparse_lu_stats["complex"] == 1
        assert np.abs(
            x_cplx - reference.solve(0.3 + 0.7j, rhs)
        ).max() <= 1e-12

    def test_real_lu_serves_complex_rhs(self, rng):
        system = _sparse_ladder(40, rng)
        factory = ResolventFactory(system.g1)
        rhs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        x = factory.solve(-0.25, rhs)
        assert factory.sparse_lu_stats["real"] == 1
        reference = ResolventFactory(system.g1.astype(complex))
        assert np.abs(x - reference.solve(-0.25, rhs)).max() <= 1e-12

    def test_real_chain_results_stay_real_valued(self, rng):
        system = _sparse_ladder(40, rng)
        factory = ResolventFactory(system.g1)
        x = factory.solve(1.5, np.ones(40))
        assert np.abs(x.imag).max() == 0.0


# ---------------------------------------------------------------------------
# difference-type distortion terms (small-offset limit)
# ---------------------------------------------------------------------------


class TestDifferenceTerms:
    def test_lifted_qldae_dc_shift_is_finite(self):
        from repro.circuits.examples import nonlinear_transmission_line

        system = nonlinear_transmission_line(8).quadratic_linearize()
        system = system.to_explicit()
        metrics = single_tone_distortion(system, 0.8, amplitude=0.2)
        assert np.isfinite(metrics["dc_shift"])
        assert metrics["dc_shift"] > 0.0
        # equal two-tone IM products hit the same DC shift and must be
        # finite too (previously NaN)
        products = two_tone_intermodulation(system, 0.8, 0.8)
        for key in ("im2_diff", "im3_2f1_f2", "im3_2f2_f1"):
            assert np.isfinite(products[key]), key

    def test_limit_matches_direct_value_when_offset_manually(self):
        from repro.circuits.examples import nonlinear_transmission_line

        system = nonlinear_transmission_line(8).quadratic_linearize()
        system = system.to_explicit()
        evaluator = volterra_evaluator(system)
        metrics = single_tone_distortion(system, 0.8, amplitude=0.2)
        w = 0.8
        direct = abs(
            complex(
                (system.output @ evaluator.h2(1j * w, 1j * (1e-7 - w)))[0, 0]
            )
        )
        dc_kernel = metrics["dc_shift"] / (0.5 * 0.2**2)
        assert np.isclose(dc_kernel, direct, rtol=1e-6)

    def test_genuine_pole_raises_named_error(self):
        # G1 = [[0]] puts an *observable, controllable* eigenvalue at
        # DC: H2(jw, -jw) has a true pole there and the limit must
        # refuse with a message naming the term.
        system = PolynomialODE(
            np.array([[0.0]]),
            np.array([1.0]),
            g2=np.array([[1.0]]),
            output=np.array([1.0]),
        )
        with pytest.raises(NumericalError, match="dc_shift"):
            single_tone_distortion(system, 0.7)
