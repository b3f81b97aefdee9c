"""Ablation — Kronecker-sum solver strategies (paper §2.3).

The paper's §2.3 argues that (i) the brute-force dense treatment of the
lifted (n + n²) matrix costs O((n+n²)²) per operation while the Schur
trick reduces every ``(2© G1 − sI)`` solve to triangular
sweeps, and (ii) the eq.-(18) Sylvester decoupling splits the H2 Krylov
generation into independent subsystems.  This bench times:

* dense-LU solve of the full (n², n²) Kronecker sum (the naive route),
* sparse-LU of the same operator (exploiting circuit sparsity),
* the Schur-sweep solver (never forms the operator),

across system sizes, plus coupled vs decoupled H2 basis construction.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import format_table
from repro.circuits import quadratic_rc_ladder
from repro.linalg import KronSumSolver, kron_sum_power
from repro.mor import AssociatedTransformMOR


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


SIZES = (20, 40, 60) if paper_scale() else (10, 16)


def _time(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_kron_sum_solver_strategies(benchmark):
    rows = []
    for n in SIZES:
        system = quadratic_rc_ladder(n_nodes=n).to_explicit()
        g1 = system.g1
        rhs = np.random.default_rng(0).standard_normal(n * n)
        ks_sparse = sp.csr_matrix(kron_sum_power(sp.csr_matrix(g1), 2))
        shifted = (ks_sparse - 0.5 * sp.identity(n * n)).tocsc()

        dense_op = ks_sparse.toarray() - 0.5 * np.eye(n * n)
        t_dense = _time(lambda: np.linalg.solve(dense_op, rhs))

        lu = spla.splu(shifted)
        t_sparse = _time(lambda: lu.solve(rhs))

        solver = KronSumSolver(g1)
        t_schur = _time(lambda: solver.solve(rhs, k=2, shift=-0.5))

        rows.append([n, n * n, t_dense, t_sparse, t_schur])
    benchmark.pedantic(
        lambda: KronSumSolver(
            quadratic_rc_ladder(n_nodes=SIZES[-1]).to_explicit().g1
        ).solve(np.ones(SIZES[-1] ** 2), k=2, shift=-0.5),
        rounds=1,
        iterations=1,
    )
    print()
    print("=" * 70)
    print("ABLATION 2 | (G1 ⊕ G1 − 0.5 I) solve strategies, "
          "seconds per solve")
    print("=" * 70)
    print(format_table(
        ["n", "lifted n²", "dense LU", "sparse LU", "Schur sweep"], rows
    ))
    # The Schur sweep must beat dense at the largest size.
    assert rows[-1][4] < rows[-1][2]


def test_coupled_vs_decoupled_h2(benchmark):
    n = 60 if paper_scale() else 16
    system = quadratic_rc_ladder(n_nodes=n).to_explicit()
    orders = (6, 3, 0)

    coupled = AssociatedTransformMOR(orders=orders, strategy="coupled")
    decoupled = AssociatedTransformMOR(orders=orders, strategy="decoupled")

    t_coupled = _time(lambda: coupled.build_basis(system), repeats=2)
    t_decoupled = _time(lambda: decoupled.build_basis(system), repeats=2)
    benchmark.pedantic(
        lambda: coupled.build_basis(system), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["strategy", "basis build [s]"],
        [
            ["coupled (eq. 17)", t_coupled],
            ["decoupled (eq. 18, incl. Π solve)", t_decoupled],
        ],
        title=f"H2 subspace construction, n = {n}",
    ))
    rom_c = coupled.reduce(system)
    rom_d = decoupled.reduce(system)
    # Both strategies span the same moment space in exact arithmetic;
    # numerically the deep chains agree to roundoff amplified by their
    # conditioning, so compare the spans with a modest tolerance and
    # also check the reduced models' associated H2 agree functionally.
    proj = rom_d.basis @ (rom_d.basis.T @ rom_c.basis)
    assert np.abs(proj - rom_c.basis).max() < 1e-3
    from repro.volterra import associated_h2

    # evaluate A2(H2) through each ROM's own output map
    out_c = rom_c.system.output @ associated_h2(rom_c.system).eval(0.1)
    out_d = rom_d.system.output @ associated_h2(rom_d.system).eval(0.1)
    assert np.allclose(out_c, out_d, rtol=1e-6, atol=1e-12)
