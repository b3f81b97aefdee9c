#!/usr/bin/env python
"""Parametric multi-corner reduction vs per-corner cold pipelines.

One :func:`repro.pipeline.run_parametric` call reduces a whole ROM
family — a corner grid plus Monte-Carlo draws over a parameter-annotated
quadratic RC ladder — reusing work across corners through four tiers
(exact store dedup, residual-checked interpolation, warm-started
extended-Krylov, cold).  The baseline reduces every grid corner with an
independent cold :func:`~repro.pipeline.run_pipeline` call.  The bench
asserts the family is *cheap* (total speedup over the cold baseline)
and *right*: every corner served by an exact tier (dedup / warm / cold)
matches its cold reduction's distortion sweep to 1e-9, and interpolated
corners stay within the configured interpolation tolerance.

Usage::

    PYTHONPATH=src python benchmarks/bench_mc.py [n_states]

Each invocation **appends** one run entry (per-tier hit counts, corner
throughput, the fixed Monte-Carlo seed) to the keyed list in
``benchmarks/BENCH_sweep.json`` (see ``perf_log.py``).  The default
configuration is the full 8×8-corner grid with 256 draws at n = 1024 —
hours of cold baseline; set ``REPRO_BENCH_QUICK=1`` for a 4×4 grid with
16 draws at n = 64 (minutes, same assertions).
"""

import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf_log import append_run  # noqa: E402
from repro.circuits.examples import (  # noqa: E402
    quadratic_rc_ladder_netlist,
)
from repro.params import Parameter, ParameterGrid, materialize  # noqa: E402
from repro.pipeline import (  # noqa: E402
    _worst_rel_dev,
    run_parametric,
    run_pipeline,
)

OUT_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"

DEFAULT_N = 1024
MC_SEED = 2012
INTERP_TOL = 1e-4
EXACT_TOL = 1e-9

REDUCE = {"orders": [3, 2, 1], "strategy": "decoupled"}


def _quick():
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def make_parametric_ladder(n_nodes):
    """The documented example circuit, annotated with two ranged axes."""
    net = quadratic_rc_ladder_netlist(n_nodes, quad_nodes=4)
    r_sites = tuple(
        i for i, dev in enumerate(net.devices) if hasattr(dev, "resistance")
    )
    g_sites = tuple(
        i for i, dev in enumerate(net.devices)
        if getattr(dev, "g2", 0.0) != 0.0
    )
    return net.with_params([
        Parameter("r_series", "resistance", r_sites, nominal=1.0,
                  low=0.9, high=1.15, sigma=0.03),
        Parameter("g_quad", "g2", g_sites, nominal=0.5,
                  low=0.4, high=0.6, sigma=0.05),
    ])


def run_mc_case(n_nodes=None):
    quick = _quick()
    if n_nodes is None:
        n_nodes = 64 if quick else DEFAULT_N
    axis_points = 4 if quick else 8
    draws = 16 if quick else 256
    net = make_parametric_ladder(n_nodes)
    sweep = {
        "start": 0.05, "stop": 0.5,
        "points": 13 if quick else 25, "amplitude": 0.1,
    }
    mc = {
        "grid_points": axis_points, "draws": draws, "seed": MC_SEED,
        "interp_tol": INTERP_TOL,
    }

    start = time.perf_counter()
    result = run_parametric(net, reduce=REDUCE, sweep=sweep, mc=mc,
                            sparse=True)
    parametric_s = time.perf_counter() - start
    corners = len(result.corners)

    # -- cold baseline: one independent run_pipeline per grid corner ------
    grid = ParameterGrid(net, axis_points)
    omegas = np.asarray(result.distributions["omegas"], dtype=float)
    cold_s = 0.0
    dev_exact = 0.0
    dev_interp = 0.0
    for record in result.corners:
        concrete = materialize(net, record["values"])
        start = time.perf_counter()
        cold = run_pipeline(concrete, reduce=REDUCE, sweep=sweep,
                            sparse=True)
        cold_s += time.perf_counter() - start
        report = cold.report()["sweep"]
        dev = max(
            _worst_rel_dev(record["hd2"], np.asarray(report["hd2"])),
            _worst_rel_dev(record["hd3"], np.asarray(report["hd3"])),
        )
        if record["tier"] == "interp":
            dev_interp = max(dev_interp, dev)
        else:
            dev_exact = max(dev_exact, dev)

    assert dev_exact <= EXACT_TOL, (
        f"exact-tier corner deviates {dev_exact:.3e} from cold "
        f"(> {EXACT_TOL})"
    )
    assert dev_interp <= INTERP_TOL, (
        f"interpolated corner deviates {dev_interp:.3e} from cold "
        f"(> {INTERP_TOL})"
    )
    speedup = cold_s / parametric_s
    assert speedup >= 5.0, (
        f"parametric family ran only {speedup:.2f}x faster than "
        f"{corners} cold pipelines"
    )
    return {
        "n_states": int(n_nodes),
        "grid_shape": list(grid.shape),
        "corners": corners,
        "draws": len(result.draws),
        "seed": MC_SEED,
        "interp_tol": INTERP_TOL,
        "parametric_s": parametric_s,
        "cold_baseline_s": cold_s,
        "speedup": speedup,
        "corners_per_sec": (corners + len(result.draws)) / parametric_s,
        "tiers": dict(result.tiers),
        "max_dev_exact_tiers": dev_exact,
        "max_dev_interp_tier": dev_interp,
        "sweep_points": int(omegas.size),
        "timings": {k: float(v) for k, v in result.timings.items()},
    }


def main(argv):
    n_nodes = int(argv[1]) if len(argv) > 1 else None
    case = run_mc_case(n_nodes)
    run = {
        "bench": "mc",
        "quick": _quick(),
        "python": platform.python_version(),
        **case,
    }
    append_run(OUT_PATH, run)
    tiers = ", ".join(f"{k}={v}" for k, v in sorted(case["tiers"].items()))
    print(
        f"[bench_mc] n={case['n_states']} corners={case['corners']} "
        f"draws={case['draws']} seed={case['seed']}\n"
        f"  parametric {case['parametric_s']:.1f}s vs cold baseline "
        f"{case['cold_baseline_s']:.1f}s -> {case['speedup']:.1f}x\n"
        f"  tiers: {tiers}\n"
        f"  max dev: exact tiers {case['max_dev_exact_tiers']:.2e} "
        f"(<= {EXACT_TOL}), interp {case['max_dev_interp_tier']:.2e} "
        f"(<= {INTERP_TOL})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
