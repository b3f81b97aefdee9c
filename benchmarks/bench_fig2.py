"""Figure 2 — nonlinear transmission line with voltage source.

Paper §3.1: 100-stage diode line, voltage-driven (lifted QLDAE *with*
the D1 term), reduced to a ~13th-order ROM by matching 6 moments of H1,
3 of A2(H2) and 2 of A3(H3).  Regenerates:

* Fig. 2(b): transient response of the full model vs the proposed ROM,
* Fig. 2(c): the peak-normalized relative error trace.

The reduce → simulate → compare orchestration runs through
:func:`repro.pipeline.run_pipeline` (one declarative call, the same
path the CLI uses); the benchmark-timed kernel is that whole pipeline,
with the projection-basis construction (the paper's "Arnoldi" phase)
reported separately from ``rom.build_time``.
"""

import os

import numpy as np
import pytest

from repro.analysis import format_table, relative_error_trace, series_summary
from repro.circuits import nonlinear_transmission_line
from repro.pipeline import run_pipeline


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


N_NODES = 100 if paper_scale() else 16
# (8, 3, 2) at s0 = 1.0 gives a stable order-13 ROM — matching the
# paper's reported order exactly.  Lifted QLDAEs are singular at DC, and
# one-sided Galerkin stability is sensitive to (orders, s0); see the
# order-sweep ablation.
ORDERS = (8, 3, 2)
EXPANSION = 1.0
# dt = 0.02: the trapezoidal rule needs to resolve the stiff input
# diode (linearized conductance ~40); dt = 0.05 oscillates.
T_END, DT = 30.0, 0.02


@pytest.fixture(scope="module")
def system():
    ntl = nonlinear_transmission_line(
        n_nodes=N_NODES, source="voltage", diode_at_input=True
    )
    return ntl.quadratic_linearize()


def test_fig2_transient_and_error(system, benchmark):
    # Drive level chosen so node voltages stay in the paper's Fig-2
    # range (|v| < 0.08 V): with i_D = e^{40 v}, a 0.15 V swing is deep
    # saturation and outside any Volterra model's validity.
    result = benchmark.pedantic(
        lambda: run_pipeline(
            system,
            reduce={"orders": ORDERS, "expansion_points": (EXPANSION,)},
            transient={
                "source": {
                    "kind": "sine", "amplitude": 0.08, "frequency": 0.08,
                },
                "t_end": T_END,
                "dt": DT,
                "compare_full": True,
            },
        ),
        rounds=1,
        iterations=1,
    )
    rom = result.rom
    assert rom.order <= 16

    transient = result.transient
    err_trace = relative_error_trace(
        transient["full_output"], transient["output"]
    )
    err = float(err_trace.max())
    times = transient["times"]

    print()
    print("=" * 70)
    print(f"FIG 2 | NTL + voltage source | lifted dim {system.n_states} "
          f"(paper: 100 stages), D1 present: {system.d1 is not None}")
    print("=" * 70)
    print(series_summary("Fig2(b) original ", times,
                         transient["full_output"]))
    print(series_summary("Fig2(b) ROM      ", times, transient["output"]))
    print(series_summary("Fig2(c) rel error", times, err_trace))
    print(format_table(
        ["quantity", "paper", "measured"],
        [
            ["full order", "~200 (100 stages lifted)", system.n_states],
            ["ROM order", 13, rom.order],
            ["max rel err", "~0.01 (Fig 2c)", err],
            ["basis build time [s]", "n/a", rom.build_time],
        ],
        title="Fig. 2 summary",
    ))
    assert err < 0.02, "Fig-2 ROM accuracy regressed"
    assert np.isfinite(transient["output"]).all()
