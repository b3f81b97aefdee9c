"""Library-side process of the benchmark: one fresh interpreter per use.

Modes (the harness in ``run.py`` spawns these from the checkout root)::

    worker.py probe
        import the library the way a job does, print READY, exit
    worker.py job --workload W --seed S --pass P --tmp DIR --out FILE
            [--trace]
        run pass P of W's job list through the public front doors
    worker.py serve --store DIR --out FILE
        host ``python -m repro serve`` with tracing installed; the span
        snapshot is written to FILE when the daemon is interrupted
    worker.py reference --requests FILE --out FILE
        one-shot ``run_pipeline`` answers for sampled served requests

``probe`` prints ``READY`` once its imports are done, so the harness
can time set-up.  Only the front-door calls are timed; the reference
answers the checks compare against are computed after them.
"""

import argparse
import ctypes
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def peak_rss_mb(pid="self"):
    """Peak resident set size (VmHWM) of *pid* in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def blas_threads():
    """OpenBLAS thread count of this process, or None if not found."""
    names = (
        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        paths = {
            line.split()[-1] for line in maps
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in names:
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment():
    """Run-record facts only the library process can see."""
    import numpy
    import scipy

    from repro import engine

    stats = engine.worker_stats()
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "engine_backend": stats.get("backend"),
        "engine_workers": stats.get("workers"),
    }


def _points(pairs):
    return [complex(re, im) if im else float(re) for re, im in pairs]


def _reduce_arg(reduce):
    reduce = dict(reduce)
    if "expansion_points" in reduce:
        reduce["expansion_points"] = _points(reduce["expansion_points"])
    return reduce


def _float_lists(sweep, *names):
    return {name: [float(x) for x in sweep[name]] for name in names}


# ---------------------------------------------------------------------------
# job passes
# ---------------------------------------------------------------------------


def _pipeline_call(pipeline, job, store_dir):
    kwargs = {"reduce": _reduce_arg(job["reduce"])}
    if "sweep" in job:
        kwargs["sweep"] = job["sweep"]
    if "transient" in job:
        kwargs["transient"] = job["transient"]
    if job.get("store"):
        kwargs["store"] = str(store_dir)
    start = time.perf_counter()
    result = pipeline.run_pipeline(job["spec"], **kwargs)
    return time.perf_counter() - start, result


def _pipeline_answer(job, result, store_dir):
    answer = {"rom_order": int(result.rom.order)}
    if result.sweep is not None:
        answer.update(_float_lists(
            result.sweep, "hd2", "hd3", "hd2_full", "hd3_full"
        ))
    if result.transient is not None:
        answer["rom_output"] = [float(x) for x in result.transient["output"]]
        answer["full_output"] = [
            float(x) for x in result.transient["full_output"]
        ]
        answer["transient_tol"] = job["transient_tol"]
    if job.get("store"):
        # Read the artifact back: the store must round-trip the ROM.
        import numpy as np

        from repro.store import ModelStore

        store = ModelStore(store_dir)
        keys = list(store.keys())
        loaded = store.load(keys[0]) if len(keys) == 1 else None
        answer["store_roundtrip"] = bool(
            loaded is not None
            and loaded.rom.order == result.rom.order
            and np.array_equal(loaded.rom.basis, result.rom.basis)
        )
    return answer


def _parametric_call(pipeline, job, store_dir):
    start = time.perf_counter()
    result = pipeline.run_parametric(
        job["spec"], reduce=job["reduce"], sweep=job["sweep"],
        mc=job["mc"], store=str(store_dir),
    )
    return time.perf_counter() - start, result


def _parametric_answer(job, result):
    """Member answers plus each member's own full-model sweep."""
    from repro.analysis.distortion import distortion_sweep
    from repro.circuits.netlist import Netlist
    from repro.params import materialize
    from repro.pipeline import SweepJob

    sweep = SweepJob.coerce(job["sweep"])
    netlist = Netlist.from_dict(job["spec"])
    sparse = job["spec"].get("compile", {}).get("sparse")
    members = []
    for member in list(result.corners) + list(result.draws):
        system = materialize(netlist, member["values"], check=False).compile(
            sparse=sparse
        )
        _, hd2_full, hd3_full = distortion_sweep(
            system.to_explicit(), sweep.omegas, amplitude=sweep.amplitude
        )
        members.append({
            "tier": member["tier"],
            "reduce_time_s": float(member["reduce_time_s"]),
            "rom_order": int(member["rom_order"]),
            "hd2": [float(x) for x in member["hd2"]],
            "hd3": [float(x) for x in member["hd3"]],
            "hd2_full": [float(x) for x in hd2_full],
            "hd3_full": [float(x) for x in hd3_full],
        })
    return {
        "rom_order": max(m["rom_order"] for m in members),
        "interp_tol": float(job["mc"]["interp_tol"]),
        "members": members,
        "tiers": {k: int(v) for k, v in result.tiers.items()},
        "timings": {k: float(v) for k, v in result.timings.items()},
    }


def run_job(args):
    import repro.pipeline as pipeline

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    calls = []
    tmp = Path(args.tmp)
    for index, job in enumerate(
        workloads.jobs_for(args.workload, ROOT, args.seed, args.pass_index)
    ):
        store_dir = tmp / f"store-{os.getpid()}-{index}"
        call = {"name": job["name"], "front_door": job["front_door"]}
        try:
            if job["front_door"] == "run_parametric":
                latency, result = _parametric_call(pipeline, job, store_dir)
                call["latency_s"] = latency
                call["peak_rss_mb"] = peak_rss_mb()
                if tracer is not None:
                    tracer.paused = True  # reference sweeps are checks
                call["answer"] = _parametric_answer(job, result)
            else:
                latency, result = _pipeline_call(pipeline, job, store_dir)
                call["latency_s"] = latency
                call["peak_rss_mb"] = peak_rss_mb()
                call["answer"] = _pipeline_answer(job, result, store_dir)
            call["ok"] = True
        except Exception as exc:  # a failed call is counted, not fatal
            call["ok"] = False
            call["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.paused = False
        calls.append(call)
    out = {
        "calls": calls,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# traced daemon host and served references
# ---------------------------------------------------------------------------


def run_serve(args):
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro import cli

    # SIGINT shuts the daemon down cleanly, then the snapshot is written.
    try:
        code = cli.main([
            "serve", "--port", "0", "--store", args.store,
        ])
    finally:
        Path(args.out).write_text(
            json.dumps(tracer.snapshot()), encoding="utf-8"
        )
    return code


def run_reference(args):
    import repro.pipeline as pipeline

    requests = json.loads(Path(args.requests).read_text(encoding="utf-8"))
    answers = []
    for request in requests:
        payload = request["payload"]
        # Like the daemon, fall back to the spec's embedded reduce job.
        reduce = payload.get("reduce", payload["spec"].get("reduce"))
        try:
            result = pipeline.run_pipeline(
                payload["spec"], reduce=reduce, sweep=payload["sweep"],
            )
            answers.append({
                "key": request["key"],
                "hd2": [float(x) for x in result.sweep["hd2"]],
                "hd3": [float(x) for x in result.sweep["hd3"]],
            })
        except Exception as exc:
            answers.append({
                "key": request["key"],
                "error": f"{type(exc).__name__}: {exc}",
            })
    Path(args.out).write_text(json.dumps(answers), encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("probe")
    job = sub.add_parser("job")
    job.add_argument("--workload", required=True)
    job.add_argument("--seed", type=int, required=True)
    job.add_argument("--pass", dest="pass_index", type=int, default=0)
    job.add_argument("--tmp", required=True)
    job.add_argument("--out", required=True)
    job.add_argument("--trace", action="store_true")
    serve = sub.add_parser("serve")
    serve.add_argument("--store", required=True)
    serve.add_argument("--out", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--requests", required=True)
    ref.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        import repro.pipeline  # noqa: F401  (what a job's user imports)

        print("READY", flush=True)
        print(json.dumps(environment()), flush=True)
        return 0
    if args.mode == "job":
        return run_job(args)
    if args.mode == "serve":
        return run_serve(args)
    return run_reference(args)


if __name__ == "__main__":
    sys.exit(main())
