"""Figure 3 — nonlinear transmission line with current source.

Paper §3.2: the current-driven variant whose lifted QLDAE has **no** D1
term and x ∈ R^70; at equal moment orders NORM needs a ROM of order 20
while the proposed method needs 9, with near-identical accuracy.
Regenerates:

* Fig. 3(a): transients of the original, the proposed ROM and the NORM
  ROM,
* Fig. 3(b): both relative-error traces,

and prints the ROM-size comparison.  Timed kernels: both subspace
constructions — the proposed method through one declarative
:func:`repro.pipeline.run_pipeline` call, the NORM baseline hand-wired
(the pipeline speaks the paper's reducer; baselines stay explicit).
"""

import os

import numpy as np
import pytest

from repro.analysis import (
    format_table,
    relative_error_trace,
    series_summary,
)
from repro.circuits import nonlinear_transmission_line
from repro.mor import NORMReducer
from repro.pipeline import run_pipeline
from repro.simulation import simulate, step_source


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


N_NODES = 36 if paper_scale() else 16  # 36 nodes + 34 diodes = 70 states
ORDERS = (6, 3, 2)
EXPANSION = 0.5
T_END, DT = 30.0, 0.05


@pytest.fixture(scope="module")
def system():
    ntl = nonlinear_transmission_line(
        n_nodes=N_NODES,
        source="current",
        diode_at_input=False,
        diode_start=2,
    )
    return ntl.quadratic_linearize()


@pytest.fixture(scope="module")
def full_transient(system):
    return simulate(system, step_source(0.25), T_END, DT)


def test_fig3_proposed(system, full_transient, benchmark):
    result = benchmark.pedantic(
        lambda: run_pipeline(
            system,
            reduce={"orders": ORDERS, "expansion_points": (EXPANSION,)},
            transient={
                "source": {"kind": "step", "amplitude": 0.25},
                "t_end": T_END,
                "dt": DT,
            },
        ),
        rounds=1,
        iterations=1,
    )
    rom = result.rom
    transient = result.transient
    err = relative_error_trace(
        full_transient.output(0), transient["output"]
    )
    print()
    print("=" * 70)
    print(f"FIG 3 | NTL + current source | x in R^{system.n_states} "
          f"(paper: R^70), D1 is None: {system.d1 is None}")
    print("=" * 70)
    print(series_summary(
        "Fig3(a) original", full_transient.times, full_transient.output(0)
    ))
    print(series_summary("Fig3(a) proposed", transient["times"],
                         transient["output"]))
    print(series_summary("Fig3(b) err(proposed)", transient["times"], err))
    print(f"proposed ROM order: {rom.order}  (paper: 9)")
    assert float(err.max()) < 0.05
    test_fig3_proposed.rom_order = rom.order


def test_fig3_norm_baseline(system, full_transient, benchmark):
    reducer = NORMReducer(orders=ORDERS, s0=EXPANSION)
    rom = benchmark.pedantic(
        lambda: reducer.reduce(system), rounds=1, iterations=1
    )
    red = simulate(rom.system, step_source(0.25), T_END, DT)
    err = relative_error_trace(full_transient.output(0), red.output(0))
    print()
    print(series_summary("Fig3(a) NORM    ", red.times, red.output(0)))
    print(series_summary("Fig3(b) err(NORM)", red.times, err))
    proposed_order = getattr(test_fig3_proposed, "rom_order", None)
    rows = [
        ["original", system.n_states, "-"],
        ["proposed", proposed_order, "paper: 9"],
        ["NORM", rom.order, "paper: 20"],
    ]
    print(format_table(["model", "order", "paper value"], rows,
                       title="Fig. 3 ROM sizes"))
    assert float(err.max()) < 0.05
    if proposed_order is not None:
        assert proposed_order < rom.order, (
            "the proposed ROM must be more compact than NORM"
        )
