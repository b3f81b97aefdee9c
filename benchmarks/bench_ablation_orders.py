"""Ablation — moment-order sweep (accuracy vs ROM size).

Sweeps the (q1, q2, q3) moment orders of the proposed method on the
Fig-3 transmission-line system and tabulates ROM order vs transient
error, showing (i) error decreasing with richer subspaces and
(ii) the ROM order growing only *linearly* in the requested orders —
the paper's central complexity claim.
"""

import os

import numpy as np
import pytest

from repro.analysis import format_table, max_relative_error
from repro.circuits import nonlinear_transmission_line
from repro.mor import AssociatedTransformMOR
from repro.simulation import simulate, step_source


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


N_NODES = 36 if paper_scale() else 16
EXPANSION = 0.5
T_END, DT = 30.0, 0.05

SWEEP = [
    (2, 0, 0),
    (4, 0, 0),
    (6, 0, 0),
    (6, 1, 0),
    (6, 3, 0),
    (6, 3, 1),
    (6, 3, 2),
    (8, 4, 2),
]


@pytest.fixture(scope="module")
def system():
    return nonlinear_transmission_line(
        n_nodes=N_NODES, source="current",
        diode_at_input=False, diode_start=2,
    ).quadratic_linearize()


@pytest.fixture(scope="module")
def full_transient(system):
    return simulate(system, step_source(0.25), T_END, DT)


def test_order_sweep(system, full_transient, benchmark):
    from repro.errors import ConvergenceError

    rows = []
    err_map = {}
    orders_map = {}
    for orders in SWEEP:
        reducer = AssociatedTransformMOR(
            orders=orders, expansion_points=(EXPANSION,)
        )
        rom = reducer.reduce(system)
        try:
            red = simulate(rom.system, step_source(0.25), T_END, DT)
            err = max_relative_error(
                full_transient.output(0), red.output(0)
            )
        except ConvergenceError:
            # An unstable ROM diverging is a *result* of this ablation
            # (one-sided Galerkin gives no stability guarantee).
            err = float("inf")
        err_map[orders] = err
        orders_map[orders] = rom.order
        rows.append([str(orders), rom.order, err,
                     "yes" if rom.details["rom_linear_stable"] else "NO"])
    benchmark.pedantic(
        lambda: AssociatedTransformMOR(
            orders=(6, 3, 0), expansion_points=(EXPANSION,)
        ).reduce(system),
        rounds=1, iterations=1,
    )
    print()
    print("=" * 70)
    print(f"ABLATION 1 | moment-order sweep on the Fig-3 system "
          f"(n = {system.n_states})")
    print("=" * 70)
    print(format_table(
        ["(q1,q2,q3)", "ROM order", "max rel err", "stable"], rows
    ))
    # richer subspaces must help overall: best error with nonlinear
    # moments beats the best linear-only error
    assert err_map[(6, 3, 2)] < err_map[(6, 0, 0)]
    # linear growth of ROM size
    assert orders_map[(6, 3, 2)] <= 6 + 3 + 2
