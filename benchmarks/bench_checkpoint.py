#!/usr/bin/env python
"""Fault-tolerance overhead: checkpointing and crash/resume.

Measures, on the sep-healthy sparse quadratic ladder at circuit scale:

* **checkpoint overhead** — the same ``orders=(3, 2, 1)`` decoupled
  reduction cold vs with stage-boundary checkpointing (block payloads +
  solver snapshots + durable manifest rewrites), over interleaved
  cold/checkpointed pairs (5 at full scale, 1 at quick scale).  Reported
  as the median and quartiles of the per-pair overhead against a 10%
  budget: the budget is met when the upper quartile is within it,
  missed when the lower quartile is past it, and unresolved when the
  quartiles span it (one pair gives no verdict).  Wall time on a
  shared host swings by more than the budget from run to run, so the
  deterministic side of the cost is reported too: stages committed,
  and the files and bytes the checkpointed run writes.
* **resume time** — a build crashed at its second commit resumed from
  the checkpoint, with bit-identity of the resumed basis asserted
  against the cold run (SHA-256 of the basis bytes).

Usage::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py [n_states]

Each invocation **appends** one run entry to the keyed list in
``benchmarks/BENCH_sweep.json`` (see ``perf_log.py``).  Set
``REPRO_BENCH_QUICK=1`` to shrink the case for CI smoke.
"""

import contextlib
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.perf_log import append_run, peak_memory  # noqa: E402
from repro.checkpoint import JobState  # noqa: E402
from repro.circuits.examples import quadratic_rc_ladder_netlist  # noqa: E402
from repro.errors import FaultInjected  # noqa: E402
from repro.mor.assoc import AssociatedTransformMOR  # noqa: E402
from repro.serialize import array_digest  # noqa: E402
from repro.testing import faults  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"

DEFAULT_N = 20000

#: Budget for the checkpoint overhead, read against its quartiles.
OVERHEAD_BUDGET = 0.10


def _quick():
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def fresh_system(n_nodes):
    """New system object per run: the workspace is memoized on it."""
    net = quadratic_rc_ladder_netlist(
        n_nodes, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
    )
    return net.compile(sparse=True)


def make_reducer():
    return AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")


def _timed(fn):
    t0w, t0c = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - t0w, time.process_time() - t0c


@contextlib.contextmanager
def counted_writes(root):
    """Count the files and bytes moved into place under *root*.

    Every durable checkpoint write (stage block, solver and Π snapshot,
    manifest) lands through ``os.replace`` of an fsync'd temp file, so
    wrapping that one call counts them all.
    """
    counts = {"files": 0, "bytes": 0}
    root = os.fspath(root)
    replace = os.replace

    def counting_replace(src, dst, **kwargs):
        if os.fspath(dst).startswith(root):
            counts["files"] += 1
            counts["bytes"] += os.path.getsize(src)
        return replace(src, dst, **kwargs)

    os.replace = counting_replace
    try:
        yield counts
    finally:
        os.replace = replace


def _quartiles(values):
    """``(q1, median, q3)`` of *values* (all three equal for one value)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _verdict(overheads):
    """The overhead's verdict against the budget, or ``None`` for one pair.

    ``"meets"`` when even the upper quartile is within the budget,
    ``"MISSES"`` when even the lower quartile is past it, and
    ``"unresolved"`` when the quartiles span it.
    """
    if len(overheads) < 2:
        return None
    q1, _, q3 = _quartiles(overheads)
    if q3 <= OVERHEAD_BUDGET:
        return "meets"
    if q1 > OVERHEAD_BUDGET:
        return "MISSES"
    return "unresolved"


def run_case(n_nodes, workdir, pairs=5):
    ckdir = Path(workdir) / "ck"

    # Interleave cold and checkpointed runs, one pair at a time, and
    # summarize the per-pair overheads by median and quartiles: on
    # shared hosts single runs swing by more than the few-percent
    # overhead this benchmark exists to measure.
    cold_walls, cold_cpus, ck_walls, ck_cpus = [], [], [], []
    digest = stages = writes = None
    for _ in range(max(1, pairs)):
        rom_cold, wall, cpu = _timed(
            lambda: make_reducer().reduce(fresh_system(n_nodes))
        )
        cold_walls.append(wall)
        cold_cpus.append(cpu)
        digest = array_digest(rom_cold.basis)
        shutil.rmtree(ckdir, ignore_errors=True)
        with counted_writes(ckdir) as writes:
            rom_ck, wall, cpu = _timed(
                lambda: make_reducer().reduce(
                    fresh_system(n_nodes), checkpoint=JobState(ckdir)
                )
            )
        ck_walls.append(wall)
        ck_cpus.append(cpu)
        assert array_digest(rom_ck.basis) == digest, (
            "checkpointing perturbed the basis"
        )
        stages = rom_ck.details["checkpoint"]["stages_committed"]
        shutil.rmtree(ckdir)
    overheads = [ck / cold - 1.0 for ck, cold in zip(ck_walls, cold_walls)]
    cpu_overheads = [ck / cold - 1.0 for ck, cold in zip(ck_cpus, cold_cpus)]
    q1, median, q3 = _quartiles(overheads)
    cpu_q1, cpu_median, cpu_q3 = _quartiles(cpu_overheads)

    # crash at the second commit, then resume from the checkpoint
    faults.configure("checkpoint.before_commit:2:raise")
    t0 = time.perf_counter()
    try:
        make_reducer().reduce(fresh_system(n_nodes), checkpoint=JobState(ckdir))
        raise AssertionError("fault did not fire")
    except FaultInjected:
        pass
    crashed_s = time.perf_counter() - t0
    faults.configure(None)
    t0 = time.perf_counter()
    rom_resumed = make_reducer().reduce(
        fresh_system(n_nodes), checkpoint=JobState(ckdir)
    )
    resume_s = time.perf_counter() - t0
    assert array_digest(rom_resumed.basis) == digest, "resume not identical"
    resumed_info = rom_resumed.details["checkpoint"]
    shutil.rmtree(ckdir)

    return {
        "n": n_nodes,
        "orders": [3, 2, 1],
        "strategy": "decoupled",
        "basis_sha256": digest,
        "pairs": len(overheads),
        "cold_s": statistics.median(cold_walls),
        "checkpointed_s": statistics.median(ck_walls),
        "checkpoint_overhead": median,
        "checkpoint_overhead_q1": q1,
        "checkpoint_overhead_q3": q3,
        "checkpoint_overheads": overheads,
        "verdict": _verdict(overheads),
        "cold_cpu_s": statistics.median(cold_cpus),
        "checkpointed_cpu_s": statistics.median(ck_cpus),
        "checkpoint_cpu_overhead": cpu_median,
        "checkpoint_cpu_overhead_q1": cpu_q1,
        "checkpoint_cpu_overhead_q3": cpu_q3,
        "stages_committed": stages,
        "files_written": writes["files"],
        "bytes_written": writes["bytes"],
        "crashed_s": crashed_s,
        "resume_s": resume_s,
        "resume_loaded": resumed_info["loaded"],
        "resume_computed": resumed_info["computed"],
        "peak_memory": peak_memory(),
    }


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_N
    if _quick():
        n = min(n, 512)
    results = {
        "benchmark": "checkpoint",
        "meta": {
            "generated_unix": time.time(),
            "quick_scale": _quick(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    print(f"fault-tolerant (3,2,1) decoupled NMOR (n = {n}) ...")
    workdir = tempfile.mkdtemp(prefix="repro-bench-ck-")
    try:
        results["fault_tolerance"] = run_case(
            n, workdir, pairs=1 if _quick() else 5
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    case = results["fault_tolerance"]
    print(
        "  cold {cold_s:.2f}s -> checkpointed {checkpointed_s:.2f}s "
        "(medians of {pairs} pairs)\n"
        "  overhead: wall median {checkpoint_overhead:+.1%} "
        "[q1 {checkpoint_overhead_q1:+.1%}, q3 {checkpoint_overhead_q3:+.1%}]"
        ", cpu median {checkpoint_cpu_overhead:+.1%} "
        "[q1 {checkpoint_cpu_overhead_q1:+.1%}, "
        "q3 {checkpoint_cpu_overhead_q3:+.1%}]\n"
        "  writes: {stages_committed} stages, {files_written} files, "
        "{bytes_written} bytes\n"
        "  crash@2nd-commit {crashed_s:.2f}s -> resume {resume_s:.2f}s "
        "(loaded {resume_loaded}, computed {resume_computed}, "
        "bit-identical)"
        .format(**case)
    )
    verdict = case["verdict"]
    if verdict == "unresolved":
        print(
            f"  wall overhead unresolved against the "
            f"{OVERHEAD_BUDGET:.0%} budget (quartiles span the budget)"
        )
    elif verdict is not None:
        print(
            f"  wall overhead {verdict} the {OVERHEAD_BUDGET:.0%} budget "
            f"(quartiles {case['checkpoint_overhead_q1']:+.1%} to "
            f"{case['checkpoint_overhead_q3']:+.1%})"
        )
    count = append_run(OUT_PATH, results)
    print(f"appended run {count} to {OUT_PATH}")


if __name__ == "__main__":
    main()
