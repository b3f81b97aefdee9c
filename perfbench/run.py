"""Benchmark harness: spec -> ROM -> answer, one-shot, parametric and served.

Run from the root of a checkout (the library is imported from ``src/``)::

    python3 perfbench/run.py --workload oneshot-healthy --seed 1 \\
        --seconds 15 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  A run:

1. times set-up several times: fresh interpreters importing the library
   (job workloads) or fresh ``python -m repro serve`` daemons until
   ``/healthz`` answers (``served``), and reports the median;
2. measures: job workloads run whole passes of their fixed job list
   until ``--seconds`` have passed, each pass in a fresh worker process
   so every reduction is cold; ``served`` drives one daemon with a
   fixed ``SERVED_REQUESTS``-request stream (its job list; requests not
   sent within the run's budget count as failed) over two closed-loop
   keep-alive connections;
3. checks every answer (after the timed region) and counts exceptions,
   failed checks and non-200 responses as failed operations;
4. prints a run record, a table of every metric with its unit, and, as
   the last line, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the run also makes one traced pass (job workloads) or
serves the stream again from a traced daemon, and reports the
per-layer metrics instead; the raw spans are written under
``.perfbench/``.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import peak_rss_mb  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
#: Set-up samples per run: fresh interpreters (job workloads), or
#: fresh daemons including the one that serves the stream (served).
SETUP_SAMPLES = 5
SERVED_SETUP_SAMPLES = 3
#: Every child process and the served stream must finish this long
#: after the run starts (a run must end within 180 s).
RUN_BUDGET_S = 170.0
#: Kept back from the served stream for its last replies, the checks
#: and shutdown.
SERVED_WRAPUP_S = 45.0
#: Requests in the served stream, its fixed job list.  Its p99 must
#: have ten samples beyond it and sit past the dozen cold reductions,
#: inside the band of disk loads and slow hot requests.
SERVED_REQUESTS = 2000
SERVED_REFERENCE_SAMPLES = 2
SERVED_CONNECTIONS = 2


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (exit code 2)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Processes:
    """Every child process a run starts; :meth:`stop_all` reaps them."""

    def __init__(self):
        self.live = []
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def remaining(self):
        """Seconds left in the run's budget (at least a sliver)."""
        return max(0.1, self.deadline - time.perf_counter())

    def spawn(self, cmd, **kwargs):
        env = dict(os.environ)
        env["TMPDIR"] = str(OUT_DIR)  # keep library temp files in the checkout
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, **kwargs)
        self.live.append(proc)
        return proc

    def stop(self, proc, sig=signal.SIGINT, timeout=30.0):
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=min(timeout, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)
        return proc.returncode

    def stop_all(self):
        for proc in list(self.live):
            self.stop(proc, sig=signal.SIGKILL, timeout=10.0)


def _read_line(proc, deadline):
    """Next stdout line of *proc* before *deadline* (None on EOF)."""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchmarkError(f"{proc.args!r} did not report in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            return line if line else None


def _worker_cmd(*args):
    return [sys.executable, str(HERE / "worker.py"), *args]


def time_probe(procs, tmp):
    """``(seconds, environment)``: the time from spawning a fresh worker
    until its imports are done, and the run-record facts it reports."""
    start = time.perf_counter()
    with open(tmp / "probe.err", "a") as err:
        proc = procs.spawn(_worker_cmd("probe"), stdout=subprocess.PIPE,
                           stderr=err)
    line = _read_line(proc, start + procs.remaining())
    elapsed = time.perf_counter() - start
    if line is None or line.strip() != "READY":
        procs.stop(proc, sig=signal.SIGKILL)
        raise BenchmarkError(
            f"set-up probe failed; see {tmp / 'probe.err'}"
        )
    rest = proc.stdout.read()
    if procs.stop(proc, timeout=procs.remaining()) != 0:
        raise BenchmarkError("set-up probe exited with an error")
    return elapsed, json.loads(rest)


def run_worker(procs, tmp, args, label):
    """Run one worker to completion; returns its JSON output or None."""
    out = tmp / f"{label}.json"
    err = tmp / f"{label}.err"
    with open(err, "w") as err_file:
        proc = procs.spawn(
            _worker_cmd(*args, "--out", str(out)),
            stdout=subprocess.DEVNULL, stderr=err_file,
        )
        try:
            code = proc.wait(timeout=procs.remaining())
        except subprocess.TimeoutExpired:
            code = procs.stop(proc, sig=signal.SIGKILL)
        procs.stop(proc)
    if code != 0 or not out.exists():
        tail = err.read_text(errors="replace")[-2000:]
        print(f"worker {label} failed (exit {code}):\n{tail}",
              file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


class Daemon:
    """One ``python -m repro serve`` process (optionally traced)."""

    def __init__(self, procs, tmp, label, trace_out=None):
        self.procs = procs
        self.trace_out = trace_out
        store = tmp / f"{label}-store"
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--store", str(store)]
        else:
            cmd = _worker_cmd("serve", "--store", str(store),
                              "--out", str(trace_out))
        start = time.perf_counter()
        with open(tmp / f"{label}.err", "w") as err:
            self.proc = procs.spawn(cmd, stdout=subprocess.PIPE, stderr=err)
        line = _read_line(self.proc, start + procs.remaining())
        if not line or not line.startswith("serving on http://"):
            raise BenchmarkError(f"daemon {label} failed to start: {line!r}")
        address = line.split("http://", 1)[1].strip()
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        # Drain anything else the daemon prints so it never blocks.
        threading.Thread(
            target=self.proc.stdout.read, daemon=True
        ).start()
        while True:
            try:
                status, _ = loadgen.get_json(self.host, self.port, "/healthz")
            except OSError:
                status = None
            if status == 200:
                break
            if procs.remaining() <= 0.1:
                raise BenchmarkError(f"daemon {label}: /healthz never 200")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def stop(self):
        code = self.procs.stop(self.proc)
        if self.trace_out is not None:
            if code != 0 or not self.trace_out.exists():
                raise BenchmarkError("traced daemon wrote no snapshot")
            return json.loads(self.trace_out.read_text(encoding="utf-8"))
        return None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def nearest_rank(values, q):
    """Nearest-rank *q*-quantile (failed operations enter as +inf)."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def _median(values):
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# job workloads
# ---------------------------------------------------------------------------


def run_pass(procs, tmp, args, index, traced):
    label = f"{'traced-' if traced else ''}pass-{index}"
    worker_args = ["job", "--workload", args.workload, "--seed",
                   str(args.seed), "--pass", str(index), "--tmp", str(tmp)]
    if traced:
        worker_args.append("--trace")
    result = run_worker(procs, tmp, worker_args, label)
    if result is None:
        jobs = workloads.jobs_for(args.workload, ROOT, args.seed, index)
        result = {"calls": [
            {"name": job["name"], "ok": False, "error": "worker failed"}
            for job in jobs
        ], "environment": None, "trace": None}
    mark_failures(result["calls"])
    return result


def mark_failures(calls):
    """Exceptions and failed checks make a call failed (in place)."""
    for call in calls:
        call["failures"] = (
            checks.check_call(call["answer"]) if call["ok"]
            else [call.get("error", "call failed")]
        )


def _latency(call):
    return call["latency_s"] if not call["failures"] else math.inf


def job_end_to_end(setup, passes):
    calls = [call for result in passes for call in result["calls"]]
    latencies = [_latency(call) for call in calls]
    good = [lat for lat in latencies if math.isfinite(lat)]
    answered = [call for call in calls if call["ok"]]
    if not answered:
        raise BenchmarkError("no call produced an answer")
    return {
        "setup_s": _median(setup),
        "time_to_answer_s": _median([
            sum(_latency(call) for call in result["calls"])
            for result in passes
        ]),
        "rom_order": max(c["answer"]["rom_order"] for c in answered),
        "request_p50_ms": 1e3 * _median(latencies),
        "request_p99_ms": 1e3 * nearest_rank(latencies, 0.99),
        "requests_per_s": len(good) / sum(good) if good else 0.0,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in answered),
    }


def params_metrics(calls):
    """``params.*`` of the parametric calls (zeros when there are none)."""
    answers = [
        c["answer"] for c in calls if c["ok"] and "tiers" in c["answer"]
    ]
    metrics = {name: 0.0 for name in (
        "params.cold", "params.warm", "params.interp",
        "params.interp_rejected", "params.dedup", "params.interp_accept_frac",
        "params.cold_s", "params.warm_s", "params.interp_s",
        "params.sweeps_s",
    )}
    if not answers:
        return metrics
    tiers = {}
    for answer in answers:
        for key, value in answer["tiers"].items():
            tiers[key] = tiers.get(key, 0) + value
    for key in ("cold", "warm", "interp", "interp_rejected", "dedup"):
        metrics[f"params.{key}"] = tiers.get(key, 0) / len(answers)
    tried = tiers.get("interp", 0) + tiers.get("interp_rejected", 0)
    metrics["params.interp_accept_frac"] = (
        tiers.get("interp", 0) / tried if tried else 0.0
    )
    for tier in ("cold", "warm", "interp"):
        times = [m["reduce_time_s"] for a in answers for m in a["members"]
                 if m["tier"] == tier]
        metrics[f"params.{tier}_s"] = (
            statistics.fmean(times) if times else 0.0
        )
    metrics["params.sweeps_s"] = statistics.fmean(
        a["timings"]["sweeps_s"] for a in answers
    )
    return metrics


def run_job_workload(args, procs, tmp, record):
    probes = [time_probe(procs, tmp) for _ in range(SETUP_SAMPLES)]
    setup = [seconds for seconds, _ in probes]
    record["environment"] = probes[0][1]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(procs, tmp, args, len(passes), traced=False))
    traced = None
    if args.trace:  # the first pass's inputs again, traced
        traced = run_pass(procs, tmp, args, 0, traced=True)
    calls = [call for result in passes for call in result["calls"]]
    record["passes"] = len(passes)
    metrics = job_end_to_end(setup, passes)
    record["time_to_answer_s"] = metrics["time_to_answer_s"]
    record["pass_times_s"] = [
        [call.get("latency_s") for call in result["calls"]]
        for result in passes
    ]
    record["rom_orders"] = [
        [call["answer"]["rom_order"] for call in result["calls"]
         if call["ok"]]
        for result in passes
    ]
    if traced is None:
        return metrics, calls
    calls += traced["calls"]
    traced_time = sum(_latency(call) for call in traced["calls"])
    untraced_time = sum(_latency(call) for call in passes[0]["calls"])
    if traced["trace"] is None:
        raise BenchmarkError("the traced pass produced no trace")
    layers = per_layer(
        traced["trace"], calls=traced["calls"],
        overhead=traced_time / untraced_time - 1.0,
    )
    record["traced_time_to_answer_s"] = traced_time
    write_spans(args, traced["trace"])
    return layers, calls


# ---------------------------------------------------------------------------
# served
# ---------------------------------------------------------------------------


def serve_stream(args, procs, tmp, label, traced):
    """One daemon serving one stream; returns its measurements."""
    trace_out = tmp / f"{label}-trace.json" if traced else None
    daemon = Daemon(procs, tmp, label, trace_out=trace_out)
    try:
        requests = workloads.stream_prefix(ROOT, args.seed, SERVED_REQUESTS)
        records, wall = loadgen.run_stream(
            daemon.host, daemon.port, requests,
            procs.remaining() - SERVED_WRAPUP_S,
            connections=SERVED_CONNECTIONS,
        )
        for verb, _, key in requests[len(records):]:
            records.append({  # never sent: the stream hit its time cap
                "verb": verb, "key": key, "status": 0,
                "latency_s": math.inf, "served_from": None,
                "error": "not sent within the stream time cap",
            })
        status, stats = loadgen.get_json(daemon.host, daemon.port,
                                         "/metrics")
        if status != 200:
            raise BenchmarkError(f"/metrics answered {status}")
        peak = peak_rss_mb(daemon.proc.pid)
    finally:
        snapshot = daemon.stop()
    return {
        "setup_s": daemon.setup_s, "records": records, "wall_s": wall,
        "stats": stats, "peak_rss_mb": peak, "snapshot": snapshot,
    }


def check_served(args, procs, tmp, records):
    """Mark failed records in place (``record["failures"]``)."""
    for record in records:
        record["failures"] = checks.check_status(record)
    for index, failures in checks.check_tiers(records).items():
        records[index]["failures"] += failures
    firsts = {}
    for record in records:
        if record["verb"] == "sweep" and not record["failures"]:
            firsts.setdefault(record["key"], record)
    keys = sorted(firsts)
    rng = random.Random(f"served-reference:{args.seed}")
    sample = rng.sample(keys, min(SERVED_REFERENCE_SAMPLES, len(keys)))
    if not sample:
        return
    payloads = {}
    for _, payload, key in workloads.stream_prefix(ROOT, args.seed,
                                                   SERVED_REQUESTS):
        payloads.setdefault(key, payload)
    requests = tmp / "reference-requests.json"
    requests.write_text(json.dumps(
        [{"key": key, "payload": payloads[key]} for key in sample]
    ), encoding="utf-8")
    answers = run_worker(procs, tmp, ["reference", "--requests",
                                      str(requests)], "reference")
    if answers is None:
        answers = [{"key": key, "error": "reference worker failed"}
                   for key in sample]
    for answer in answers:
        record = firsts[answer["key"]]
        record["failures"] += checks.check_reference(record, answer)


def served_end_to_end(setup, run):
    records = run["records"]
    ok = [r for r in records if not r["failures"]]
    latencies = [
        r["latency_s"] if not r["failures"] else math.inf for r in records
    ]
    orders = [r["rom_order"] for r in ok if r["rom_order"] is not None]
    if not orders:
        raise BenchmarkError("the stream delivered no reduced model")
    return {
        "setup_s": _median(setup),
        # the fixed job list here is the whole request stream
        "time_to_answer_s": run["wall_s"],
        "rom_order": max(orders),
        "request_p50_ms": 1e3 * _median(latencies),
        "request_p99_ms": 1e3 * nearest_rank(latencies, 0.99),
        "requests_per_s": len(ok) / run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(snapshot, served=None, calls=(), overhead=0.0):
    """Every per-layer metric: the traced library layers, the serving
    layer (zeros without a served stream) and the parametric tiers
    (zeros without a parametric call)."""
    layers = tracing.layer_metrics(snapshot)
    layers.update(serve_layer_metrics(served))
    layers.update(params_metrics(calls))
    layers["trace.overhead_frac"] = overhead
    return layers


def serve_layer_metrics(run):
    if run is None:
        run = {"records": [], "stats": {}}
    records = [r for r in run["records"] if not r["failures"]]
    tiered = [r for r in records if r["served_from"] is not None]
    metrics = {}
    for tier in ("hot", "disk", "cold"):
        walls = [r["wall_time_s"] for r in tiered if r["served_from"] == tier]
        metrics[f"serve.{tier}_ms"] = 1e3 * _median(walls)
        metrics[f"serve.{tier}_frac"] = (
            len(walls) / len(tiered) if tiered else 0.0
        )
    metrics["serve.http_ms"] = 1e3 * _median([
        r["latency_s"] - r["wall_time_s"] for r in records
        if r["wall_time_s"] is not None
    ])
    coalescer = run["stats"].get("coalescer", {})
    specs = run["stats"].get("specs", {})
    metrics["serve.coalesced_frac"] = (
        coalescer.get("coalesced", 0) / coalescer["requests"]
        if coalescer.get("requests") else 0.0
    )
    lookups = specs.get("hits", 0) + specs.get("misses", 0)
    metrics["serve.spec_hit_frac"] = (
        specs.get("hits", 0) / lookups if lookups else 0.0
    )
    return metrics


def run_served_workload(args, procs, tmp, record):
    record["environment"] = time_probe(procs, tmp)[1]
    setup = []
    for index in range(SERVED_SETUP_SAMPLES - 1):
        daemon = Daemon(procs, tmp, f"setup-{index}")
        setup.append(daemon.setup_s)
        daemon.stop()
    run = serve_stream(args, procs, tmp, "served", traced=False)
    setup.append(run["setup_s"])
    check_served(args, procs, tmp, run["records"])
    record["requests"] = len(run["records"])
    record["stream_wall_s"] = run["wall_s"]
    record["tiers"] = {
        tier: sum(1 for r in run["records"] if r["served_from"] == tier)
        for tier in ("hot", "disk", "cold")
    }
    metrics = served_end_to_end(setup, run)
    records = run["records"]
    if not args.trace:
        return metrics, records
    traced = serve_stream(args, procs, tmp, "served-traced", traced=True)
    check_served(args, procs, tmp, traced["records"])
    records = records + traced["records"]
    traced_metrics = served_end_to_end(setup, traced)
    layers = per_layer(
        traced["snapshot"], served=traced,
        overhead=(traced_metrics["request_p50_ms"]
                  / metrics["request_p50_ms"] - 1.0),
    )
    record["traced_request_p50_ms"] = traced_metrics["request_p50_ms"]
    write_spans(args, traced["snapshot"])
    return layers, records


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchmarkError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def declared_metrics(benchmark, trace):
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[section]}


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_spans(args, snapshot):
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(snapshot), encoding="utf-8")


def emit(args, record, metrics, units, attempted, failed):
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    bad = [name for name, value in metrics.items()
           if not math.isfinite(value)]
    if bad:
        raise BenchmarkError(f"non-finite metrics (failed operations): {bad}")
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = resource.getrusage(resource.RUSAGE_SELF)
    record.update({
        "cpu_s": usage.ru_utime + usage.ru_stime + own.ru_utime
        + own.ru_stime,
        "attempted": attempted,
        "failed": failed,
    })
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))
    for name in units:
        print(f"  {name:<32} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    procs = Processes()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    started = time.perf_counter()
    try:
        benchmark = load_benchmark()
        units = declared_metrics(benchmark, args.trace)
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "src_sha256": src_digest(),
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        }
        if args.workload == "served":
            metrics, ops = run_served_workload(args, procs, tmp, record)
        else:
            metrics, ops = run_job_workload(args, procs, tmp, record)
        failures = [op for op in ops if op["failures"]]
        for op in failures[:5]:
            print(f"failed: {op.get('name') or op.get('key')}: "
                  f"{op['failures'][:2]}", file=sys.stderr)
        record["wall_s"] = time.perf_counter() - started
        emit(args, record, metrics, units, len(ops), len(failures))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        procs.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
