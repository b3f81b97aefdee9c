#!/usr/bin/env python
"""Bounded memory at circuit scale: peak RSS against the O(n·r) model.

The sep-healthy sparse quadratic ladder's n = 1e5 decoupled
``orders=(3, 2, 1)`` reduction runs in a subprocess, recording wall
time and ``ru_maxrss``, and checking the peak against the resident-set
model: interpreter + system base, the sparse LUs the build factored
(O(n) each; at most that many stay cached), and the O(n·r) arrays it
holds — the shared extended-Krylov basis ``U``/``AU``, the eq.-(18) Π
solve's real right basis ``U``/``AU``/``AᵀU`` and its real left basis
``V``/``AV``.  Nothing with n·r² (or n²) entries is formed.  The peak
must stay within 1.5x of the model.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py [n_states]

Each invocation **appends** one run entry to the keyed list in
``benchmarks/BENCH_sweep.json`` (see ``perf_log.py``).  Set
``REPRO_BENCH_QUICK=1`` to shrink the case for CI smoke.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf_log import append_run, peak_memory  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"
REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

DEFAULT_N = 100_000

#: Resident-set model constants (see module docstring).  A sparse LU
#: of a shifted ladder G1 is charged ~224 bytes/row.  Each basis is
#: charged the (n, dim) arrays it keeps: ``U`` and ``AU`` for the
#: shared basis and Π's left basis, and ``AᵀU`` as well for Π's right
#: basis (both Π bases are real, 8 bytes per entry).
MODEL_LU_BYTES_PER_ROW = 224
MODEL_SHARED_ARRAYS = 2
MODEL_PI_RIGHT_ARRAYS = 3
MODEL_PI_LEFT_ARRAYS = 2


def _quick():
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


_CHILD = r"""
import json, resource, sys, time
n = int(sys.argv[1])
from repro.circuits.examples import quadratic_rc_ladder_netlist
from repro.mor.assoc import AssociatedTransformMOR
net = quadratic_rc_ladder_netlist(
    n, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
)
system = net.compile(sparse=True)
mor = AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")
rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
t0 = time.perf_counter()
rom = mor.reduce(system)
elapsed = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
ws = system._associated_workspace
shared = ws.lowrank_kron.basis_columns()
lu_stats = ws.resolvent.sparse_lu_stats
print(json.dumps({
    "elapsed_s": elapsed,
    "rss_before_bytes": rss_before,
    "ru_maxrss_bytes": peak,
    "rom_order": rom.system.n_states,
    "pi_rank": ws.pi.rank,
    "pi_left_rank": ws.pi.v.shape[1],
    "shared_dim": shared.shape[1],
    "shared_itemsize": shared.itemsize,
    "lu_count": lu_stats["real"] + lu_stats["complex"],
}))
"""


def run_scale_case(n_nodes):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(n_nodes)],
        capture_output=True, text=True, env=env,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"scale run failed ({result.returncode}):\n{result.stderr}"
        )
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    r, k = payload["pi_rank"], payload["pi_left_rank"]
    shared_bytes = payload["shared_dim"] * payload["shared_itemsize"]
    model_bytes = (
        payload["rss_before_bytes"]
        + payload["lu_count"] * MODEL_LU_BYTES_PER_ROW * n_nodes
        + n_nodes * (
            MODEL_SHARED_ARRAYS * shared_bytes
            + MODEL_PI_RIGHT_ARRAYS * 8 * r
            + MODEL_PI_LEFT_ARRAYS * 8 * k
        )
    )
    ratio = payload["ru_maxrss_bytes"] / model_bytes
    # The model is asymptotic: at small (quick-mode) n the interpreter
    # and solver base dwarf the O(n) terms, so only hold the line at
    # genuine scale.
    if n_nodes >= 50_000:
        assert ratio <= 1.5, (
            f"peak RSS {payload['ru_maxrss_bytes'] / 1e6:.0f} MB "
            f"exceeds 1.5x the O(n*r) resident model "
            f"({model_bytes / 1e6:.0f} MB)"
        )
    return {
        "n": n_nodes,
        "elapsed_s": payload["elapsed_s"],
        "rom_order": payload["rom_order"],
        "pi_rank": r,
        "pi_left_rank": k,
        "shared_dim": payload["shared_dim"],
        "lu_count": payload["lu_count"],
        "rss_before_mb": payload["rss_before_bytes"] / 1e6,
        "peak_rss_mb": payload["ru_maxrss_bytes"] / 1e6,
        "model_mb": model_bytes / 1e6,
        "peak_over_model": ratio,
    }


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_N
    quick = _quick()
    if quick:
        n = min(n, 8192)
    results = {
        "benchmark": "stream",
        "meta": {
            "generated_unix": time.time(),
            "quick_scale": quick,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }

    print(f"reduction at scale (n = {n}) ...")
    results["scale"] = run_scale_case(n)
    print("  {elapsed_s:.1f}s, ROM order {rom_order}, peak RSS "
          "{peak_rss_mb:.0f} MB = {peak_over_model:.2f}x of the "
          "{model_mb:.0f} MB O(n*r) model".format(**results["scale"]))

    results["peak_memory"] = peak_memory()
    count = append_run(OUT_PATH, results)
    print(f"appended run {count} to {OUT_PATH}")


if __name__ == "__main__":
    main()
