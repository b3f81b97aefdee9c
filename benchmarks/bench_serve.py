#!/usr/bin/env python
"""Serving benchmark: daemon throughput and the three reduce tiers.

The serving layer's claims are quantitative, so this bench measures
them on the circuit-scale sparse ladder:

* **tier latencies** — the same HD2/HD3 sweep answered with the
  reduction acquired from each tier: **cold** (empty store, full
  NMOR), **warm-disk** (fresh handle, content-addressed artifact load
  + ``to_explicit()`` rebuild per request), **hot-memory** (resident
  :class:`~repro.serve.HotROMCache` entry with its primed explicit
  system).  Hot must beat warm-disk — that gap *is* the reason the
  daemon exists over warm one-shot CLI calls.
* **sustained throughput** — requests/s through the real HTTP front
  door (``ServeDaemon``) over keep-alive connections, all hot.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [n_states]

Appends one run entry to ``benchmarks/BENCH_sweep.json`` (see
``perf_log.py``).  ``REPRO_BENCH_QUICK=1`` shrinks the circuit and the
request counts for CI smoke.
"""

import http.client
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf_log import append_run  # noqa: E402
from repro.serve import ReproService, ServeDaemon, SweepRequest  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"

DEFAULT_N = 512
REDUCE = {"orders": [3, 2, 1], "strategy": "decoupled"}
SWEEP = {"start": 0.05, "stop": 0.5, "points": 8, "amplitude": 0.05}


def _quick():
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def ladder_spec(n_nodes):
    """The lifted-sparse bench circuit (sep-healthy low-rank G2)."""
    return {
        "generator": "quadratic_rc_ladder_netlist",
        "args": {"n_nodes": n_nodes, "r": 10.0, "g_leak": 1.0,
                 "g_quad": 0.5, "quad_nodes": 8},
        "compile": {"sparse": True},
    }


def _sweep_request(spec):
    return SweepRequest.from_payload(
        {"spec": spec, "reduce": REDUCE, "sweep": SWEEP}
    )


def bench_tiers(spec, root, repeats):
    """Median sweep latency with the reduction from each tier."""
    # Cold: empty store, the one genuinely expensive request.
    cold_service = ReproService(store=root, hot_capacity=8)
    t0 = time.perf_counter()
    cold = cold_service.handle(_sweep_request(spec))
    cold_s = time.perf_counter() - t0
    assert cold.served_from == "cold"

    # Warm-disk: hot cache disabled, so every request re-loads the
    # artifact from the store and rebuilds its explicit system — what a
    # cacheless daemon (or repeated one-shot CLI calls) would pay.
    disk_service = ReproService(store=root, hot_capacity=0)
    disk_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        outcome = disk_service.handle(_sweep_request(spec))
        disk_times.append(time.perf_counter() - t0)
        assert outcome.served_from == "disk"

    # Hot-memory: resident artifact + primed explicit system.
    hot_service = ReproService(store=root, hot_capacity=8)
    hot_service.handle(_sweep_request(spec))  # admit to the hot cache
    hot_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        outcome = hot_service.handle(_sweep_request(spec))
        hot_times.append(time.perf_counter() - t0)
        assert outcome.served_from == "hot"

    # All three tiers answer bit-identically.
    reference = cold.result.sweep
    for served in (disk_service, hot_service):
        check = served.handle(_sweep_request(spec)).result.sweep
        assert np.array_equal(check["hd2"], reference["hd2"])
        assert np.array_equal(check["hd3"], reference["hd3"])

    disk_s = statistics.median(disk_times)
    hot_s = statistics.median(hot_times)
    return {
        "cold_s": cold_s,
        "warm_disk_s": disk_s,
        "hot_memory_s": hot_s,
        "hot_vs_disk_speedup": disk_s / hot_s,
        "disk_vs_cold_speedup": cold_s / disk_s,
        "repeats": repeats,
    }


def bench_throughput(spec, root, requests):
    """Sustained hot-tier req/s over one HTTP keep-alive connection."""
    service = ReproService(store=root, hot_capacity=8)
    daemon = ServeDaemon(service, port=0, queue_limit=8)
    url = daemon.start_background()
    try:
        host, port = url.split("://", 1)[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=120)
        body = json.dumps(
            {"spec": spec, "reduce": REDUCE, "sweep": SWEEP}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}

        def post():
            conn.request("POST", "/v1/sweep", body=body, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200, payload
            return payload

        first = post()  # cold: builds + admits the ROM
        t0 = time.perf_counter()
        for _ in range(requests):
            served = post()
            assert served["reduction"]["served_from"] == "hot"
        elapsed = time.perf_counter() - t0
        assert served["sweep"]["hd2"] == first["sweep"]["hd2"]
        conn.close()
        snapshot = service.metrics.snapshot()
        return {
            "requests": requests,
            "elapsed_s": elapsed,
            "req_per_s": requests / elapsed,
            "p50_ms": snapshot["latency"]["sweep"]["p50_ms"],
            "p99_ms": snapshot["latency"]["sweep"]["p99_ms"],
        }
    finally:
        daemon.stop_background()


def run_serve_bench(n_nodes=DEFAULT_N):
    quick = _quick()
    repeats = 3 if quick else 7
    requests = 10 if quick else 40

    spec = ladder_spec(n_nodes)
    root = tempfile.mkdtemp(prefix="repro-serve-bench-")
    try:
        tiers = bench_tiers(spec, root, repeats)
        throughput = bench_throughput(spec, root, requests)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "n_nodes": n_nodes,
        "orders": list(REDUCE["orders"]),
        "strategy": REDUCE["strategy"],
        "sweep_points": int(SWEEP["points"]),
        "tiers": tiers,
        "throughput": throughput,
    }


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------


def test_hot_tier_beats_warm_disk():
    from repro.analysis import format_table

    n = 96 if _quick() else DEFAULT_N
    result = run_serve_bench(n_nodes=n)
    tiers = result["tiers"]
    print()
    print(format_table(
        ["tier", "latency_s"],
        [["cold", tiers["cold_s"]],
         ["warm-disk", tiers["warm_disk_s"]],
         ["hot-memory", tiers["hot_memory_s"]]],
        title=f"BENCH serve | sparse ladder n={n}",
    ))
    assert tiers["hot_memory_s"] < tiers["warm_disk_s"], (
        "hot tier no faster than warm-disk: "
        f"{tiers['hot_memory_s']:.4f}s vs {tiers['warm_disk_s']:.4f}s"
    )
    assert tiers["warm_disk_s"] < tiers["cold_s"]


def main():
    n = DEFAULT_N
    if len(sys.argv) > 1:
        n = int(sys.argv[1])
    if _quick() and n == DEFAULT_N:
        n = 96
    print(f"serving tiers / throughput (n={n}) ...")
    result = run_serve_bench(n_nodes=n)
    tiers = result["tiers"]
    print(
        "  cold {cold_s:.3f}s | warm-disk {warm_disk_s:.4f}s | "
        "hot {hot_memory_s:.4f}s ({hot_vs_disk_speedup:.1f}x over disk)"
        .format(**tiers)
    )
    print(
        "  throughput: {req_per_s:.1f} req/s hot over keep-alive "
        "(p50 {p50_ms:.1f} ms, p99 {p99_ms:.1f} ms)"
        .format(**result["throughput"])
    )
    run = {
        "meta": {
            "bench": "bench_serve",
            "generated_unix": time.time(),
            "quick_scale": _quick(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "serve": result,
    }
    count = append_run(OUT_PATH, run)
    print(f"appended run {count} to {OUT_PATH}")


if __name__ == "__main__":
    main()
