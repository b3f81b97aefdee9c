"""Ablation — baseline landscape: proposed vs NORM vs Carleman vs BT.

An extension beyond the paper.  Positions the paper's method among the
classical alternatives on one weakly nonlinear workload:

* **proposed** — associated-transform moment matching (this paper),
* **NORM** — multivariate moment matching (the paper's baseline),
* **Carleman + linear MOR** — bilinearize to n + n² states, then reduce
  the *linear part* by Krylov (the pre-QLMOR route; note its state
  explosion is exactly what the associated transform avoids),
* **balanced truncation of the linear part only** — what you lose by
  ignoring the nonlinearity altogether.

Reported: ROM order, transient error, build time.
"""

import os
import time

import numpy as np
import pytest

from repro.analysis import format_table, max_relative_error
from repro.circuits import quadratic_rc_ladder
from repro.mor import (
    AssociatedTransformMOR,
    NORMReducer,
    balanced_truncation,
)
from repro.simulation import simulate, step_source
from repro.systems import QLDAE, StateSpace, carleman_bilinearize


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


N_NODES = 50 if paper_scale() else 14
ORDERS = (6, 3, 0)
T_END, DT = 20.0, 0.02
AMP = 0.2


@pytest.fixture(scope="module")
def system():
    return quadratic_rc_ladder(n_nodes=N_NODES).to_explicit()


@pytest.fixture(scope="module")
def full_transient(system):
    return simulate(system, step_source(AMP), T_END, DT)


def test_baseline_landscape(system, full_transient, benchmark):
    u = step_source(AMP)
    ref = full_transient.output(0)
    rows = []

    t0 = time.perf_counter()
    rom_a = AssociatedTransformMOR(orders=ORDERS).reduce(system)
    t_a = time.perf_counter() - t0
    red = simulate(rom_a.system, u, T_END, DT)
    rows.append(["proposed (assoc. transform)", rom_a.order,
                 max_relative_error(ref, red.output(0)), t_a])

    t0 = time.perf_counter()
    rom_n = NORMReducer(orders=ORDERS).reduce(system)
    t_n = time.perf_counter() - t0
    red = simulate(rom_n.system, u, T_END, DT)
    rows.append(["NORM", rom_n.order,
                 max_relative_error(ref, red.output(0)), t_n])

    # Carleman: bilinearize, then Krylov-reduce the bilinear system's
    # linear part and project the N matrix along.
    t0 = time.perf_counter()
    carl = carleman_bilinearize(system)
    from repro.mor import krylov_basis

    v = krylov_basis(carl.a, carl.b, sum(ORDERS))
    from repro.systems import BilinearSystem

    carl_rom = BilinearSystem(
        v.T @ carl.a @ v,
        [v.T @ n_i @ v for n_i in carl.n_mats],
        v.T @ carl.b,
        output=carl.output @ v,
    )
    t_c = time.perf_counter() - t0
    red = simulate(carl_rom, u, T_END, DT)
    rows.append([
        f"Carleman (n+n² = {carl.n_states}) + Krylov",
        carl_rom.n_states,
        max_relative_error(ref, red.output(0)),
        t_c,
    ])

    # Linear-only balanced truncation (ignores G2 entirely).
    t0 = time.perf_counter()
    bt = balanced_truncation(
        StateSpace(system.g1, system.b, system.output),
        order=rom_a.order,
    )
    t_b = time.perf_counter() - t0
    lin_rom = QLDAE(
        bt.system.a, bt.system.b, output=bt.system.c
    )
    red = simulate(lin_rom, u, T_END, DT)
    rows.append(["linear-only BT (no G2)", lin_rom.n_states,
                 max_relative_error(ref, red.output(0)), t_b])

    benchmark.pedantic(
        lambda: AssociatedTransformMOR(orders=ORDERS).reduce(system),
        rounds=1, iterations=1,
    )
    print()
    print("=" * 70)
    print(f"ABLATION 4 | baseline landscape on a {system.n_states}-state "
          "quadratic ladder")
    print("=" * 70)
    print(format_table(
        ["method", "ROM/model order", "max rel err", "build [s]"], rows
    ))
    err = {row[0].split(" ")[0]: row[2] for row in rows}
    # The nonlinear reducers must beat the linear-only ROM.
    assert err["proposed"] < err["linear-only"]
    assert err["NORM"] < err["linear-only"]
