"""Table 1 — runtime comparison between the proposed method and NORM.

Paper Table 1 reports, for the §3.2 (transmission line, R^70) and §3.3
(RF receiver, R^173) examples:

    Arnoldi  (basis construction):  proposed SLOWER than NORM
                                    (bigger lifted matrix-vector work)
    ODE solve (transient):          proposed FASTEST, original slowest
                                    (§3.2: proposed saves 61% vs NORM's
                                     ROM; both far below the original)

This bench measures the same four quantities per example and prints a
Table-1-shaped comparison.  Absolute seconds differ from the 2012
hardware; the orderings and rough ratios are the reproduction target.
"""

import os

import numpy as np
import pytest

from repro.analysis import format_table, max_relative_error, speedup
from repro.circuits import nonlinear_transmission_line, rf_receiver_chain
from repro.mor import AssociatedTransformMOR, NORMReducer
from repro.simulation import simulate, sine_source, stack_sources, step_source


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


ORDERS = (6, 3, 2)
EXPANSION = 0.5


def _measure(system, u_fn, t_end, dt, orders, s0):
    """Return the Table-1 rows for one example system."""
    reducer_a = AssociatedTransformMOR(
        orders=orders, expansion_points=(s0,)
    )
    rom_a = reducer_a.reduce(system)
    reducer_n = NORMReducer(orders=orders, s0=s0)
    rom_n = reducer_n.reduce(system)

    full = simulate(system, u_fn, t_end, dt)
    red_a = simulate(rom_a.system, u_fn, t_end, dt)
    red_n = simulate(rom_n.system, u_fn, t_end, dt)

    err_a = max_relative_error(full.output(0), red_a.output(0))
    err_n = max_relative_error(full.output(0), red_n.output(0))
    return {
        "arnoldi": (rom_a.build_time, rom_n.build_time),
        "ode": (full.wall_time, red_a.wall_time, red_n.wall_time),
        "orders": (system.n_states, rom_a.order, rom_n.order),
        "errors": (err_a, err_n),
    }


@pytest.fixture(scope="module")
def ntl_system():
    n_nodes = 36 if paper_scale() else 16
    return nonlinear_transmission_line(
        n_nodes=n_nodes, source="current",
        diode_at_input=False, diode_start=2,
    ).quadratic_linearize()


@pytest.fixture(scope="module")
def rf_system():
    n_nodes = 173 if paper_scale() else 40
    return rf_receiver_chain(n_nodes=n_nodes).to_explicit()


def test_table1(ntl_system, rf_system, benchmark):
    # §3.2 rows (longer horizon than the figure benches so the ODE-solve
    # column dominates Python constant overheads).
    t32 = _measure(
        ntl_system, step_source(0.25), 60.0, 0.02, ORDERS, EXPANSION
    )
    # §3.3 rows.
    u_rf = stack_sources([sine_source(0.25, 0.05), sine_source(0.1, 0.12)])
    t33 = _measure(rf_system, u_rf, 60.0, 0.02, ORDERS, 0.3)

    benchmark.pedantic(
        lambda: simulate(ntl_system, step_source(0.25), 5.0, 0.02),
        rounds=1, iterations=1,
    )

    rows = []
    for label, data in (("Sect. 3.2 Ex.", t32), ("Sect. 3.3 Ex.", t33)):
        rows.append([f"{label} Arnoldi", "-",
                     f"{data['arnoldi'][0]:.2f}s",
                     f"{data['arnoldi'][1]:.2f}s"])
        rows.append([f"{label} ODE solve",
                     f"{data['ode'][0]:.2f}s",
                     f"{data['ode'][1]:.2f}s",
                     f"{data['ode'][2]:.2f}s"])
    print()
    print("=" * 70)
    print("TABLE 1 | runtime comparison (paper: P4 2.8 GHz, ours: this "
          "machine)")
    print("=" * 70)
    print(format_table(
        ["", "Original", "Reduced (Proposed)", "Reduced (NORM)"], rows
    ))
    print(format_table(
        ["example", "full n", "proposed order", "NORM order",
         "err(prop)", "err(NORM)"],
        [
            ["Sect 3.2", t32["orders"][0], t32["orders"][1],
             t32["orders"][2], t32["errors"][0], t32["errors"][1]],
            ["Sect 3.3", t33["orders"][0], t33["orders"][1],
             t33["orders"][2], t33["errors"][0], t33["errors"][1]],
        ],
        title="Model sizes and accuracies",
    ))
    red32 = speedup(t32["ode"][2], t32["ode"][1])
    print(f"\nSect 3.2: proposed ROM simulation is {red32:.0%} faster than "
          "the NORM ROM (paper: 61%)")

    # Shape assertions (the paper's orderings):
    assert t32["orders"][1] < t32["orders"][2], "proposed must be smaller"
    assert t33["orders"][1] < t33["orders"][2]
    # proposed Arnoldi is the slower one (bigger lifted solves)
    assert t32["arnoldi"][0] > t32["arnoldi"][1]
    # both ROMs beat the original in ODE-solve time at paper scale
    if paper_scale():
        assert t32["ode"][1] < t32["ode"][0]
        assert t33["ode"][1] < t33["ode"][0]
        # and the smaller proposed ROM simulates faster than NORM's
        assert t32["ode"][1] < t32["ode"][2] * 1.1
