"""Figure 5 — ZnO varistor surge-protection circuit (cubic ODE).

Paper §3.4: a 102-state ODE with a cubic Kronecker term, hit by a
9.8 kV surge and reduced to order 8 by the proposed method.  Regenerates
Fig. 5(b): the input surge and the clamped output voltage, full model vs
ROM, plus a quantification of how hard the (strongly nonlinear) varistor
clamp is working.
"""

import os

import numpy as np
import pytest

from repro.analysis import (
    format_table,
    max_relative_error,
    series_summary,
)
from repro.circuits import varistor_surge_protector
from repro.mor import AssociatedTransformMOR
from repro.simulation import simulate, surge_source
from repro.systems import CubicODE


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


N_STATES = 102 if paper_scale() else 30
# The surge's fast rise excites mid-band dynamics, so we expand at DC
# plus one imaginary point (the paper's §4 notes multipoint expansion is
# "particularly straightforward" in the associated-transform framework).
ORDERS = (2, 0, 1)
POINTS = (0.0, 2.0j)
T_END, DT = 30.0, 0.02


@pytest.fixture(scope="module")
def system():
    # Keep the mass form: the reducers project (VᵀMV, VᵀG1V, ...) by
    # congruence, preserving the passive structure and ROM stability.
    return varistor_surge_protector(n_states=N_STATES)


def test_fig5_surge_response(system, benchmark):
    reducer = AssociatedTransformMOR(orders=ORDERS, expansion_points=POINTS)
    rom = benchmark.pedantic(
        lambda: reducer.reduce(system), rounds=1, iterations=1
    )
    surge = surge_source(amplitude=9.8e3, tau_rise=0.5, tau_fall=5.0)
    full = simulate(system, surge, T_END, DT)
    red = simulate(rom.system, surge, T_END, DT)
    linear = CubicODE(
        system.g1, system.b, g3=None, mass=system.mass,
        output=system.output,
    )
    lin = simulate(linear, surge, T_END, DT)

    err = max_relative_error(full.output(0), red.output(0))
    clamp = 1.0 - np.abs(full.output(0)).max() / max(
        np.abs(lin.output(0)).max(), 1e-12
    )
    print()
    print("=" * 70)
    print(f"FIG 5 | ZnO varistor surge protector | {system.n_states} "
          "states (paper: 102), cubic Kronecker nonlinearity")
    print("=" * 70)
    print(series_summary(
        "Fig5(b) input surge [V]", full.times,
        np.array([surge(t) for t in full.times]),
    ))
    print(series_summary("Fig5(b) output original", full.times,
                         full.output(0)))
    print(series_summary("Fig5(b) output ROM     ", red.times,
                         red.output(0)))
    print(format_table(
        ["quantity", "paper", "measured"],
        [
            ["full order", 102, system.n_states],
            ["ROM order", 8, rom.order],
            ["input peak [V]", "9.8e3", 9.8e3],
            ["varistor peak clamping", "(qualitative)", f"{clamp:.1%}"],
            ["max rel err", '"close match"', err],
        ],
        title="Fig. 5 summary",
    ))
    assert rom.order <= 10
    assert err < 0.12, "Fig-5 ROM accuracy regressed"
    assert np.isfinite(red.states).all()
