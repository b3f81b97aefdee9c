"""Factorization-reuse benchmarks: sweeps, transients, multipoint bases.

Measures the three workloads the resolvent/chord-Newton subsystem
accelerates, each against an in-module re-implementation of the
pre-cache evaluation path (fresh dense solve per resolvent, recursive
kernel recomputation, exact Newton):

* ``distortion_sweep`` over a 50-point ω-grid on the paper-scale
  (n ≈ 200) nonlinear transmission line,
* the Fig-2 transient (`simulate`) with chord vs exact Newton,
* a multipoint associated-transform basis build (shared-workspace reuse).

Run directly through pytest (``pytest benchmarks/bench_sweep.py -s``) or
via ``benchmarks/run_sweep_baseline.py``, which executes the quick-scale
cases and writes ``benchmarks/BENCH_sweep.json`` so future PRs have a
perf trajectory.
"""

import os
import time

import numpy as np

from repro.analysis import distortion_sweep, format_table
from repro.circuits import nonlinear_transmission_line
from repro.mor import AssociatedTransformMOR
from repro.simulation import simulate, sine_source


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


# The sweep and transient cases always run on the paper-scale circuit
# (n ≈ 200): that is the acceptance workload, and with the cached paths
# it is cheap.  Quick scale shortens the transient horizon and the basis
# system instead of shrinking the matrices (a 32-state LU is too small
# for the factorization cost to matter).
SWEEP_N_NODES = 100  # lifted dim ≈ 200
SWEEP_POINTS = 50
SWEEP_AMPLITUDE = 0.05
TRANSIENT_N_NODES = 100
TRANSIENT_T_END = 30.0 if paper_scale() else 10.0
TRANSIENT_DT = 0.02
BASIS_N_NODES = 100 if paper_scale() else 16
BASIS_ORDERS = (8, 3, 2)
BASIS_POINTS = (0.5, 1.0, 2.0)


def make_ntl_system(n_nodes):
    """Paper §3.1 lifted QLDAE (voltage-driven NTL), explicit form."""
    ntl = nonlinear_transmission_line(
        n_nodes=n_nodes, source="voltage", diode_at_input=True
    )
    return ntl.quadratic_linearize().to_explicit()


def reset_solver_caches(system):
    """Drop the per-system factorization caches (cold-start timing)."""
    for attr in (
        "_resolvent_factory",
        "_volterra_evaluator",
        "_associated_workspace",
    ):
        if hasattr(system, attr):
            delattr(system, attr)


# ---------------------------------------------------------------------------
# legacy (pre-cache) reference path: fresh dense solve per resolvent,
# recursive kernel recomputation — the code shape this PR replaced.
# SISO only, which the sweep systems are.
# ---------------------------------------------------------------------------


def _legacy_resolvent(system, s, rhs):
    n = system.n_states
    return np.linalg.solve(s * np.eye(n) - system.g1, rhs)


def legacy_h1(system, s):
    return _legacy_resolvent(system, s, system.b.astype(complex)[:, 0])


def legacy_h2(system, s1, s2):
    h1a = legacy_h1(system, s1)
    h1b = legacy_h1(system, s2)
    n = system.n_states
    inner = np.zeros(n, dtype=complex)
    if system.d1 is not None:
        inner += system.d1[0] @ (h1a + h1b)
    if system.g2 is not None:
        inner += system.g2 @ (np.kron(h1a, h1b) + np.kron(h1b, h1a))
    return 0.5 * _legacy_resolvent(system, s1 + s2, inner)


def legacy_h3(system, s1, s2, s3):
    n = system.n_states
    s_list = (s1, s2, s3)
    terms = np.zeros(n, dtype=complex)
    if system.g2 is not None:
        h1_cache = {s: legacy_h1(system, s) for s in set(s_list)}
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            h2_jk = legacy_h2(system, s_list[j], s_list[k])
            terms += system.g2 @ np.kron(h1_cache[s_list[i]], h2_jk)
            terms += system.g2 @ np.kron(h2_jk, h1_cache[s_list[i]])
    if system.d1 is not None:
        for si, sj in ((s1, s2), (s1, s3), (s2, s3)):
            terms += system.d1[0] @ legacy_h2(system, si, sj)
    return _legacy_resolvent(system, s1 + s2 + s3, terms) / 3.0


def legacy_distortion_sweep(system, omegas, amplitude):
    c = system.output
    hd2 = np.empty(omegas.size)
    hd3 = np.empty(omegas.size)
    for idx, w in enumerate(omegas):
        jw = 1j * float(w)
        h1 = abs(complex((c @ legacy_h1(system, jw))[0]))
        h2 = abs(complex((c @ legacy_h2(system, jw, jw))[0]))
        h3 = abs(complex((c @ legacy_h3(system, jw, jw, jw))[0]))
        fund = amplitude * h1
        hd2[idx] = 0.5 * amplitude**2 * h2 / fund if fund else np.inf
        hd3[idx] = 0.25 * amplitude**3 * h3 / fund if fund else np.inf
    return hd2, hd3


# ---------------------------------------------------------------------------
# timed cases (importable by the baseline runner)
# ---------------------------------------------------------------------------


def run_sweep_case(n_nodes=SWEEP_N_NODES, points=SWEEP_POINTS):
    """Time legacy vs cached 50-point distortion sweep; verify agreement."""
    system = make_ntl_system(n_nodes)
    omegas = np.linspace(0.02, 0.5, points)

    start = time.perf_counter()
    hd2_legacy, hd3_legacy = legacy_distortion_sweep(
        system, omegas, SWEEP_AMPLITUDE
    )
    legacy_s = time.perf_counter() - start

    reset_solver_caches(system)
    start = time.perf_counter()
    _, hd2, hd3 = distortion_sweep(system, omegas, amplitude=SWEEP_AMPLITUDE)
    cached_s = time.perf_counter() - start

    agree = float(
        max(
            np.abs(hd2 - hd2_legacy).max() / np.abs(hd2_legacy).max(),
            np.abs(hd3 - hd3_legacy).max() / np.abs(hd3_legacy).max(),
        )
    )
    return {
        "n_states": system.n_states,
        "points": int(points),
        "amplitude": SWEEP_AMPLITUDE,
        "direct_s": legacy_s,
        "cached_s": cached_s,
        "speedup": legacy_s / cached_s,
        "max_rel_disagreement": agree,
    }


def run_transient_case(
    n_nodes=TRANSIENT_N_NODES, t_end=TRANSIENT_T_END, dt=TRANSIENT_DT
):
    """Time exact-Newton vs chord-Newton on the Fig-2 transient."""
    system = make_ntl_system(n_nodes)
    u = sine_source(amplitude=0.08, frequency=0.08)

    exact = simulate(system, u, t_end, dt, reuse_jacobian=False)
    chord = simulate(system, u, t_end, dt, reuse_jacobian=True)
    max_diff = float(np.abs(chord.states - exact.states).max())
    return {
        "n_states": system.n_states,
        "steps": int(exact.steps),
        "exact_s": exact.wall_time,
        "chord_s": chord.wall_time,
        "speedup": exact.wall_time / chord.wall_time,
        "exact_newton_iterations": int(exact.newton_iterations),
        "chord_newton_iterations": int(chord.newton_iterations),
        "chord_factorizations": int(chord.jacobian_factorizations),
        "max_state_difference": max_diff,
    }


def run_basis_case(
    n_nodes=BASIS_N_NODES, orders=BASIS_ORDERS, points=BASIS_POINTS
):
    """Time a multipoint basis build, then a rebuild on the warm caches."""
    system = make_ntl_system(n_nodes)
    reducer = AssociatedTransformMOR(orders=orders, expansion_points=points)

    reset_solver_caches(system)
    start = time.perf_counter()
    basis, _ = reducer.build_basis(system)
    first_s = time.perf_counter() - start
    workspace = getattr(system, "_associated_workspace", None)

    start = time.perf_counter()
    basis2, _ = reducer.build_basis(system)
    rebuild_s = time.perf_counter() - start
    return {
        "n_states": system.n_states,
        "orders": list(orders),
        "expansion_points": [complex(p).real for p in points],
        "basis_columns": int(basis.shape[1]),
        "first_build_s": first_s,
        "rebuild_s": rebuild_s,
        # The rebuild must hit the memoized workspace (one Schur
        # factorization total across both builds and all expansion
        # points); chain generation itself is not cached.
        "workspace_reused": bool(
            workspace is not None
            and getattr(system, "_associated_workspace", None) is workspace
        ),
        "bases_agree": bool(
            basis.shape == basis2.shape
            and np.abs(basis2 - basis @ (basis.T @ basis2)).max() < 1e-8
        ),
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def _print_case(title, rows):
    print()
    print(format_table(["quantity", "value"], rows, title=title))


def test_sweep_factorization_reuse():
    result = run_sweep_case()
    _print_case(
        f"BENCH sweep | NTL n={result['n_states']}, "
        f"{result['points']} points",
        [[k, v] for k, v in result.items()],
    )
    assert result["max_rel_disagreement"] < 1e-8
    assert result["speedup"] > 3.0, (
        f"cached sweep only {result['speedup']:.2f}x faster"
    )


def test_transient_chord_newton():
    result = run_transient_case()
    _print_case(
        f"BENCH transient | NTL n={result['n_states']}, "
        f"{result['steps']} steps",
        [[k, v] for k, v in result.items()],
    )
    assert result["max_state_difference"] < 1e-8
    assert result["speedup"] > 1.5, (
        f"chord Newton only {result['speedup']:.2f}x faster"
    )


def test_multipoint_basis_shared_workspace():
    result = run_basis_case()
    _print_case(
        f"BENCH basis | NTL n={result['n_states']}, "
        f"points={result['expansion_points']}",
        [[k, v] for k, v in result.items()],
    )
    assert result["bases_agree"]
    assert result["workspace_reused"]
