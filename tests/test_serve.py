"""Serving layer: contracts, hot-ROM cache, tiers, daemon.

Covers the serving stack end to end — boundary validation, the three
reduce tiers (hot / disk / cold) behind one job handler, bit-identity
with the one-shot pipeline, cooperative cancellation, HTTP
backpressure (429), deadlines (504) and malformed requests (400) —
plus the concurrent-store-access guarantees the long-lived daemon
rests on (atomic overwrites, no spurious quarantines, basis-SHA
agreement after overwrite).
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.distortion import distortion_sweep
from repro.analysis.reporting import format_stats_line
from repro.circuits.examples import quadratic_rc_ladder_netlist
from repro.engine import SolvePlan, TaskCancelled
from repro.errors import ValidationError
from repro.mor import AssociatedTransformMOR
from repro.pipeline import ReductionJob, run_pipeline
from repro.serve import (
    HotROMCache,
    InfoRequest,
    ReduceRequest,
    ReproService,
    ServeDaemon,
    ServeMetrics,
    SimulateRequest,
    SweepRequest,
)
from repro.store import ModelStore, ReductionArtifact, fingerprint_system


def ladder_spec(n=12, **kwargs):
    return {
        "generator": "quadratic_rc_ladder_netlist",
        "args": {"n_nodes": n, **kwargs},
    }


REDUCE = {"orders": [3, 2, 0]}
SWEEP = {"start": 0.05, "stop": 0.3, "points": 5}
REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def build_artifact(n=12, orders=(3, 2, 0)):
    system = quadratic_rc_ladder_netlist(n_nodes=n).compile()
    reducer = AssociatedTransformMOR(orders=orders)
    rom = reducer.reduce(system)
    artifact = ReductionArtifact.from_reduction(
        rom, system=system, reducer=reducer,
        system_fingerprint=fingerprint_system(system),
    )
    return system, reducer, artifact


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------

class TestContracts:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown sweep fields"):
            SweepRequest.from_payload(
                {"spec": ladder_spec(), "sweeep": SWEEP}
            )

    @pytest.mark.parametrize("field,value", [
        ("memory_budget", "64k"), ("max_block", 7),
    ])
    def test_memory_settings_are_not_request_fields(self, field, value):
        # Process-wide settings: one request must not swap them.
        with pytest.raises(ValidationError, match="unknown sweep fields"):
            SweepRequest.from_payload({
                "spec": ladder_spec(), "reduce": REDUCE, "sweep": SWEEP,
                field: value,
            })

    def test_spec_required(self):
        with pytest.raises(ValidationError, match="needs a 'spec'"):
            InfoRequest.from_payload({})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValidationError, match="JSON object"):
            ReduceRequest.from_payload([1, 2, 3])

    def test_job_falls_back_to_spec_section(self):
        spec = dict(ladder_spec(), reduce=REDUCE, sweep=SWEEP)
        request = SweepRequest.from_payload({"spec": spec})
        assert request.reduce_job.orders == (3, 2, 0)
        assert request.sweep_job.omegas.size == 5

    def test_payload_job_overrides_spec_section(self):
        spec = dict(ladder_spec(), reduce={"orders": [5, 0, 0]})
        request = ReduceRequest.from_payload(
            {"spec": spec, "reduce": REDUCE}
        )
        assert request.reduce_job.orders == (3, 2, 0)

    def test_reduce_requires_a_job(self):
        with pytest.raises(ValidationError, match="no reduction"):
            ReduceRequest.from_payload({"spec": ladder_spec()})

    def test_sweep_requires_a_grid(self):
        with pytest.raises(ValidationError, match="no sweep"):
            SweepRequest.from_payload({"spec": ladder_spec()})

    def test_simulate_requires_a_transient(self):
        with pytest.raises(ValidationError, match="no transient"):
            SimulateRequest.from_payload({"spec": ladder_spec()})

    def test_checkpoint_without_reduce_rejected(self):
        with pytest.raises(ValidationError, match="checkpoint/resume"):
            SweepRequest.from_payload(
                {"spec": ladder_spec(), "sweep": SWEEP, "resume": True}
            )

    def test_bad_job_section_rejected_at_boundary(self):
        with pytest.raises(ValidationError, match="unknown SweepJob"):
            SweepRequest.from_payload(
                {"spec": ladder_spec(), "sweep": {"strt": 0.1}}
            )


# ---------------------------------------------------------------------------
# hot-ROM cache
# ---------------------------------------------------------------------------

class TestHotROMCache:
    def test_lru_eviction_order(self):
        _, _, artifact = build_artifact(n=8, orders=(2, 0, 0))
        cache = HotROMCache(capacity=2)
        cache.put("a", artifact)
        cache.put("b", artifact)
        assert cache.get("a") is not None  # refresh "a": "b" is now LRU
        cache.put("c", artifact)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["evicted"] == 1

    def test_verify_on_admit_rejects_tampered_basis(self):
        _, _, artifact = build_artifact(n=8, orders=(2, 0, 0))
        artifact.rom.basis[0, 0] += 1.0  # corrupt after hashing
        cache = HotROMCache(capacity=2)
        assert cache.put("bad", artifact) is None
        assert "bad" not in cache
        assert cache.stats()["rejected"] == 1

    def test_capacity_zero_disables(self):
        _, _, artifact = build_artifact(n=8, orders=(2, 0, 0))
        cache = HotROMCache(capacity=0)
        assert cache.put("a", artifact) is None
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_explicit_is_retained(self):
        _, _, artifact = build_artifact(n=8, orders=(2, 0, 0))
        cache = HotROMCache(capacity=2)
        entry = cache.put("a", artifact)
        assert entry.explicit() is entry.explicit()

    def test_overwrite_replaces_entry(self):
        _, _, old = build_artifact(n=8, orders=(2, 0, 0))
        _, _, new = build_artifact(n=8, orders=(3, 0, 0))
        cache = HotROMCache(capacity=2)
        cache.put("k", old)
        cache.put("k", new)
        entry = cache.get("k")
        assert entry.artifact is new
        assert entry.artifact.verify()

    def test_warm_start_from_store_recency(self, tmp_path):
        system, reducer, artifact = build_artifact(n=8, orders=(2, 0, 0))
        store = ModelStore(tmp_path)
        key = store.key_for(system, reducer)
        store.store(key, artifact)
        cache = HotROMCache(capacity=4)
        assert cache.warm_start(store) == 1
        assert key in cache


# ---------------------------------------------------------------------------
# service tiers + bit-identity
# ---------------------------------------------------------------------------

class TestServiceTiers:
    def test_cold_then_hot_in_one_process(self, tmp_path):
        service = ReproService(store=tmp_path, hot_capacity=4)
        payload = {"spec": ladder_spec(), "reduce": REDUCE}
        first = service.handle(ReduceRequest.from_payload(payload))
        second = service.handle(ReduceRequest.from_payload(payload))
        assert first.served_from == "cold"
        assert second.served_from == "hot"
        assert first.artifact_key == second.artifact_key
        assert second.result.store_hit is True

    def test_disk_tier_in_fresh_service(self, tmp_path):
        payload = {"spec": ladder_spec(), "reduce": REDUCE}
        ReproService(store=tmp_path, hot_capacity=4).handle(
            ReduceRequest.from_payload(payload)
        )
        fresh = ReproService(store=tmp_path, hot_capacity=4)
        outcome = fresh.handle(ReduceRequest.from_payload(payload))
        assert outcome.served_from == "disk"
        assert outcome.result.store_hit is True

    def test_no_store_still_serves_hot(self):
        service = ReproService(store=None, hot_capacity=4)
        payload = {"spec": ladder_spec(), "reduce": REDUCE}
        assert service.handle(
            ReduceRequest.from_payload(payload)
        ).served_from == "cold"
        assert service.handle(
            ReduceRequest.from_payload(payload)
        ).served_from == "hot"

    def test_sweep_bit_identical_to_run_pipeline(self, tmp_path):
        spec = ladder_spec()
        service = ReproService(store=tmp_path / "a", hot_capacity=4)
        payload = {"spec": spec, "reduce": REDUCE, "sweep": SWEEP}
        served = service.handle(SweepRequest.from_payload(payload))
        # Serve the same sweep again from the hot tier: must not drift.
        served_hot = service.handle(SweepRequest.from_payload(payload))
        reference = run_pipeline(
            spec, reduce=ReductionJob.coerce(REDUCE), sweep=SWEEP,
            store=tmp_path / "b",
        )
        for outcome in (served, served_hot):
            assert np.array_equal(
                outcome.result.sweep["hd2"], reference.sweep["hd2"]
            )
            assert np.array_equal(
                outcome.result.sweep["hd3"], reference.sweep["hd3"]
            )
        assert served_hot.served_from == "hot"

    def test_concurrent_sweeps_bit_identical(self, tmp_path):
        spec = ladder_spec()
        service = ReproService(store=tmp_path, hot_capacity=4)
        # Prime the ROM so every concurrent request is hot.
        service.handle(ReduceRequest.from_payload(
            {"spec": spec, "reduce": REDUCE}
        ))
        grids = [
            np.linspace(0.05, 0.3, 5),
            np.linspace(0.05, 0.3, 5),   # identical grid
            np.linspace(0.1, 0.4, 4),    # overlapping grid
        ]
        outcomes = [None] * len(grids)

        def worker(index, omegas):
            outcomes[index] = service.handle(SweepRequest.from_payload({
                "spec": spec, "reduce": REDUCE,
                "sweep": {"omegas": list(omegas)},
            }))

        threads = [
            threading.Thread(target=worker, args=(i, g))
            for i, g in enumerate(grids)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        for outcome, omegas in zip(outcomes, grids):
            solo = run_pipeline(
                spec, reduce=ReductionJob.coerce(REDUCE),
                sweep={"omegas": list(omegas)},
            )
            assert np.array_equal(
                outcome.result.sweep["hd2"], solo.sweep["hd2"]
            )
            assert np.array_equal(
                outcome.result.sweep["hd3"], solo.sweep["hd3"]
            )
            assert outcome.served_from == "hot"

    def test_fingerprint_computed_once_per_loaded_spec(self, tmp_path,
                                                       monkeypatch):
        calls = {"count": 0}
        real = fingerprint_system

        def counting(system):
            calls["count"] += 1
            return real(system)

        import repro.serve.service as service_mod
        monkeypatch.setattr(
            service_mod, "fingerprint_system", counting
        )
        service = ReproService(store=tmp_path, hot_capacity=4)
        payload = {"spec": ladder_spec(), "reduce": REDUCE}
        for _ in range(3):
            service.handle(ReduceRequest.from_payload(payload))
        assert calls["count"] == 1

    def test_info_and_simulate_roundtrip(self, tmp_path):
        service = ReproService(store=tmp_path, hot_capacity=4)
        info = service.handle(
            InfoRequest.from_payload({"spec": ladder_spec()})
        )
        assert info.report()["system"]["n_states"] == 12
        outcome = service.handle(SimulateRequest.from_payload({
            "spec": ladder_spec(), "reduce": REDUCE,
            "transient": {
                "source": {"kind": "sine", "amplitude": 0.05,
                           "frequency": 0.08},
                "t_end": 1.0, "dt": 0.05,
            },
        }))
        assert outcome.result.transient["steps"] == 21
        assert outcome.served_from == "cold"

    def test_job_verbs_share_one_handler(self, tmp_path, monkeypatch):
        service = ReproService(store=tmp_path, hot_capacity=4)
        seen = []
        real = service._job

        def spy(request, cancel):
            seen.append(request.verb)
            return real(request, cancel)

        monkeypatch.setattr(service, "_job", spy)
        base = {"spec": ladder_spec(), "reduce": REDUCE}
        service.handle(ReduceRequest.from_payload(base))
        service.handle(SweepRequest.from_payload({**base, "sweep": SWEEP}))
        service.handle(SimulateRequest.from_payload({
            **base,
            "transient": {"source": {"kind": "step", "amplitude": 0.05},
                          "t_end": 0.5, "dt": 0.05},
        }))
        service.handle(InfoRequest.from_payload({"spec": ladder_spec()}))
        assert seen == ["reduce", "sweep", "simulate"]

    def test_hot_sweep_observes_cancel(self, tmp_path):
        service = ReproService(store=tmp_path, hot_capacity=4)
        payload = {"spec": ladder_spec(), "reduce": REDUCE, "sweep": SWEEP}
        service.handle(SweepRequest.from_payload(payload))
        with pytest.raises(TaskCancelled):
            service.handle(
                SweepRequest.from_payload(payload), cancel=lambda: True
            )
        # The cancelled sweep left the hot entry's kernels valid.
        served = service.handle(SweepRequest.from_payload(payload))
        assert served.served_from == "hot"
        reference = run_pipeline(
            ladder_spec(), reduce=ReductionJob.coerce(REDUCE), sweep=SWEEP,
        )
        assert np.array_equal(served.result.sweep["hd2"],
                              reference.sweep["hd2"])
        assert np.array_equal(served.result.sweep["hd3"],
                              reference.sweep["hd3"])


# ---------------------------------------------------------------------------
# cooperative cancellation
# ---------------------------------------------------------------------------

class TestCancellation:
    def test_serial_executor_cancels_between_tasks(self):
        ran = []
        cancelled = {"flag": False}
        plan = SolvePlan("cancellable")
        for index in range(5):
            plan.add(ran.append, index)
        calls = {"count": 0}

        def cancel():
            calls["count"] += 1
            return cancelled["flag"] or calls["count"] > 2

        with pytest.raises(TaskCancelled):
            plan.execute(cancel=cancel)
        assert len(ran) < 5  # tail was shed

    def test_distortion_sweep_precancelled(self):
        system = quadratic_rc_ladder_netlist(n_nodes=8).compile().to_explicit()
        with pytest.raises(TaskCancelled):
            distortion_sweep(
                system, [0.1, 0.2], cancel=lambda: True
            )

    def test_cancel_none_is_bit_identical(self):
        system = quadratic_rc_ladder_netlist(n_nodes=8).compile()
        a = distortion_sweep(system.to_explicit(), [0.1, 0.2])
        b = distortion_sweep(
            system.to_explicit(), [0.1, 0.2], cancel=lambda: False
        )
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


# ---------------------------------------------------------------------------
# daemon: HTTP end to end, backpressure, deadlines
# ---------------------------------------------------------------------------

def _post(url, path, payload, timeout=120):
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response)


def _get(url, path, timeout=30):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.status, json.load(response)


def _raw_exchange(url, raw, timeout=30):
    """Send *raw* bytes on a fresh socket; read until the server closes."""
    host, port = url.split("://", 1)[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class _StallingService(ReproService):
    """Service whose handle() stalls (polling cancel) before serving."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stall = 0.0

    def handle(self, request, cancel=None):
        deadline = time.monotonic() + self.stall
        while time.monotonic() < deadline:
            if cancel is not None and cancel():
                raise TaskCancelled("stalled request cancelled")
            time.sleep(0.01)
        return super().handle(request, cancel=cancel)


class _BlockingService(ReproService):
    """Service whose handle() blocks until released (queue-fill tests)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self.entered = threading.Event()

    def handle(self, request, cancel=None):
        self.entered.set()
        assert self.release.wait(30)
        return super().handle(request, cancel=cancel)


class TestDaemon:
    def test_http_end_to_end_second_sweep_hot(self, tmp_path):
        service = ReproService(store=tmp_path, hot_capacity=4)
        daemon = ServeDaemon(service, port=0, queue_limit=4)
        url = daemon.start_background()
        try:
            status, health = _get(url, "/healthz")
            assert status == 200 and health["status"] == "ok"

            status, report = _post(url, "/v1/reduce", {
                "spec": ladder_spec(), "reduce": REDUCE,
            })
            assert status == 200
            assert report["reduction"]["served_from"] == "cold"

            sweep_payload = {
                "spec": ladder_spec(), "reduce": REDUCE, "sweep": SWEEP,
            }
            _, first = _post(url, "/v1/sweep", sweep_payload)
            _, second = _post(url, "/v1/sweep", sweep_payload)
            assert first["reduction"]["served_from"] == "hot"
            assert second["reduction"]["served_from"] == "hot"
            assert second["sweep"]["hd2"] == first["sweep"]["hd2"]

            # Served numbers match the one-shot pipeline bit for bit
            # (through JSON, which round-trips IEEE doubles exactly).
            reference = run_pipeline(
                ladder_spec(), reduce=ReductionJob.coerce(REDUCE),
                sweep=SWEEP,
            )
            assert second["sweep"]["hd2"] == list(reference.sweep["hd2"])
            assert second["sweep"]["hd3"] == list(reference.sweep["hd3"])

            status, metrics = _get(url, "/metrics")
            assert status == 200
            assert metrics["metrics"]["tiers"]["hot"] >= 2
            assert metrics["queue"]["limit"] == 4
            assert metrics["hot_cache"]["entries"] == 1
        finally:
            daemon.stop_background()

    def test_validation_errors_are_400(self, tmp_path):
        daemon = ServeDaemon(
            ReproService(store=tmp_path), port=0, queue_limit=4
        )
        url = daemon.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url, "/v1/reduce", {"spec": ladder_spec()})
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url, "/v1/nope", {})
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(url, "/v1/reduce")  # GET on a POST verb
            assert err.value.code == 405
            # Process-wide memory settings are not request fields.
            for field, value in (("memory_budget", "64k"),
                                 ("max_block", 7)):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(url, "/v1/sweep", {
                        "spec": ladder_spec(), "reduce": REDUCE,
                        "sweep": SWEEP, field: value,
                    })
                assert err.value.code == 400
                body = json.loads(err.value.read().decode())
                assert "unknown sweep fields" in body["error"]
        finally:
            daemon.stop_background()

    def test_malformed_content_length_is_400(self):
        daemon = ServeDaemon(ReproService(), port=0, queue_limit=4)
        url = daemon.start_background()
        try:
            for length in ("abc", "-5"):
                reply = _raw_exchange(url, (
                    "POST /v1/info HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {length}\r\n\r\n"
                ).encode("latin-1"))
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), reply
                assert b"Connection: close" in head
                assert "Content-Length" in json.loads(body)["error"]
            status, health = _get(url, "/healthz")
            assert status == 200 and health["status"] == "ok"
        finally:
            daemon.stop_background()

    def test_full_queue_returns_429_not_hang(self):
        service = _BlockingService(store=None, hot_capacity=2)
        daemon = ServeDaemon(service, port=0, queue_limit=1)
        url = daemon.start_background()
        results = {}
        try:
            def occupant():
                results["first"] = _post(url, "/v1/info", {
                    "spec": ladder_spec(),
                })

            thread = threading.Thread(target=occupant)
            thread.start()
            assert service.entered.wait(30)
            start = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url, "/v1/info", {"spec": ladder_spec()})
            elapsed = time.monotonic() - start
            assert err.value.code == 429
            assert err.value.headers["Retry-After"] == "1"
            assert elapsed < 10  # shed immediately, not queued
            body = json.loads(err.value.read().decode())
            assert "retry" in body["error"]

            service.release.set()
            thread.join(30)
            assert results["first"][0] == 200
            # The freed slot accepts work again.
            status, _report = _post(url, "/v1/info", {
                "spec": ladder_spec(),
            })
            assert status == 200
        finally:
            service.release.set()
            daemon.stop_background()

    def test_timeout_returns_504_without_poisoning_caches(self, tmp_path):
        service = _StallingService(store=tmp_path, hot_capacity=4)
        daemon = ServeDaemon(
            service, port=0, queue_limit=4, timeout=0.25
        )
        url = daemon.start_background()
        try:
            # Warm the ROM (fast path, well under the deadline).
            status, report = _post(url, "/v1/reduce", {
                "spec": ladder_spec(), "reduce": REDUCE,
            })
            assert status == 200

            service.stall = 30.0
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url, "/v1/sweep", {
                    "spec": ladder_spec(), "reduce": REDUCE,
                    "sweep": SWEEP,
                })
            assert err.value.code == 504

            # The cancelled worker must release its slot and the shared
            # caches must be untouched: the same sweep now serves hot
            # with the exact one-shot numbers.
            service.stall = 0.0
            deadline = time.monotonic() + 30
            while daemon._inflight > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            status, served = _post(url, "/v1/sweep", {
                "spec": ladder_spec(), "reduce": REDUCE, "sweep": SWEEP,
            })
            assert status == 200
            assert served["reduction"]["served_from"] == "hot"
            reference = run_pipeline(
                ladder_spec(), reduce=ReductionJob.coerce(REDUCE),
                sweep=SWEEP,
            )
            assert served["sweep"]["hd2"] == list(reference.sweep["hd2"])
            status, metrics = _get(url, "/metrics")
            assert metrics["metrics"]["timeouts"] >= 1
        finally:
            daemon.stop_background()

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="finds OpenBLAS through /proc/self/maps")
    def test_daemon_process_runs_blas_on_one_thread(self):
        # run_daemon's BLAS setting is process-wide and permanent, so it
        # is checked in a child that imports what `repro serve` imports.
        script = (
            "import ctypes, json\n"
            "import repro.cli\n"
            "from repro.serve.daemon import _single_thread_blas\n"
            "pinned = _single_thread_blas()\n"
            "with open('/proc/self/maps') as maps:\n"
            "    paths = sorted({line.split()[-1] for line in maps\n"
            "                    if 'openblas' in line.rsplit('/', 1)[-1]})\n"
            "threads = []\n"
            "for path in paths:\n"
            "    lib = ctypes.CDLL(path)\n"
            "    for name in ('scipy_openblas_get_num_threads64_',\n"
            "                 'scipy_openblas_get_num_threads',\n"
            "                 'openblas_get_num_threads64_',\n"
            "                 'openblas_get_num_threads'):\n"
            "        if hasattr(lib, name):\n"
            "            threads.append(getattr(lib, name)())\n"
            "            break\n"
            "print(json.dumps({'pinned': pinned, 'threads': threads}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": REPO_SRC},
            capture_output=True, text=True, check=True,
        )
        child = json.loads(result.stdout)
        assert child["pinned"] == len(child["threads"])
        assert child["threads"] == [1] * len(child["threads"])


# ---------------------------------------------------------------------------
# concurrent store access (N readers + a writer on one key)
# ---------------------------------------------------------------------------

class TestConcurrentStoreAccess:
    def test_readers_never_see_torn_state_under_overwrite(self, tmp_path):
        system, reducer, artifact_a = build_artifact(n=8, orders=(2, 0, 0))
        _, _, artifact_b = build_artifact(n=8, orders=(3, 0, 0))
        writer_store = ModelStore(tmp_path)
        key = writer_store.key_for(system, reducer)
        writer_store.store(key, artifact_a)

        stop = threading.Event()
        failures = []
        reader_stores = [ModelStore(tmp_path) for _ in range(4)]
        path = writer_store.artifact_path(key)

        def none_diagnosis(store, existed_before, corrupt_before):
            # ModelStore.load returns None from three branches: a missing
            # path, a quarantined (corrupt) read, or a schema mismatch.
            existed_after = path.exists()
            if store.corrupt > corrupt_before:
                branch = "read failed and was quarantined as corrupt"
            elif not existed_after:
                branch = "artifact path missing"
            else:
                branch = "schema mismatch (path present, no quarantine)"
            quarantined = sorted(
                str(p.relative_to(tmp_path))
                for p in tmp_path.rglob("*.corrupt*")
            )
            return (
                f"load returned None mid-overwrite: {branch}; artifact "
                f"path existed before/after load: {existed_before}/"
                f"{existed_after}; handle corrupt count {corrupt_before} "
                f"-> {store.corrupt}; corrupt files: {quarantined}"
            )

        def reader(store):
            while not stop.is_set():
                existed_before = path.exists()
                corrupt_before = store.corrupt
                loaded = store.load(key)
                if loaded is None:
                    failures.append(
                        none_diagnosis(store, existed_before, corrupt_before)
                    )
                    return
                if not loaded.verify():
                    failures.append("loaded artifact failed basis check")
                    return
                meta = store.read_meta(key)
                if meta is not None and "last_access_unix" not in meta:
                    failures.append("meta lost its last-access field")
                    return

        threads = [
            threading.Thread(target=reader, args=(store,))
            for store in reader_stores
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(15):
                writer_store.store(key, artifact_a)
                writer_store.store(key, artifact_b)
        finally:
            stop.set()
            for thread in threads:
                thread.join(30)
        assert failures == []
        # No spurious quarantines on any handle: every observed state
        # was a complete artifact.
        for store in reader_stores + [writer_store]:
            assert store.corrupt == 0
            assert store.stats()["quarantine_collisions"] == 0
        assert not list(tmp_path.rglob("*.corrupt*"))

    def test_hot_cache_basis_agreement_after_overwrite(self, tmp_path):
        system, reducer, artifact_a = build_artifact(n=8, orders=(2, 0, 0))
        _, _, artifact_b = build_artifact(n=8, orders=(3, 0, 0))
        store = ModelStore(tmp_path)
        key = store.key_for(system, reducer)
        store.store(key, artifact_a)
        cache = HotROMCache(capacity=2)
        cache.put(key, store.load(key))

        store.store(key, artifact_b)  # overwrite on disk
        # The hot entry stays self-consistent (its own basis verifies)…
        hot = cache.get(key)
        assert hot.artifact.verify()
        # …and re-admitting from disk replaces it with the new basis,
        # in agreement with the on-disk meta's recorded hash.
        cache.put(key, store.load(key))
        refreshed = cache.get(key).artifact
        assert refreshed.verify()
        meta = store.read_meta(key)
        assert (refreshed.provenance["basis_hash"]
                == meta["provenance"]["basis_hash"])

    def test_touch_updates_last_access_and_recency(self, tmp_path):
        system, reducer, artifact = build_artifact(n=8, orders=(2, 0, 0))
        _, reducer_b, artifact_b = (
            build_artifact(n=8, orders=(3, 0, 0))[0],
            AssociatedTransformMOR(orders=(3, 0, 0)),
            build_artifact(n=8, orders=(3, 0, 0))[2],
        )
        store = ModelStore(tmp_path)
        key_a = store.key_for(system, reducer)
        key_b = store.key_for(system, reducer_b)
        store.store(key_a, artifact)
        store.store(key_b, artifact_b)
        before = store.last_access(key_a)
        time.sleep(0.02)
        assert store.load(key_a) is not None
        assert store.touches == 1
        assert store.last_access(key_a) > before
        assert store.recent_keys() == [key_a, key_b]
        assert store.recent_keys(limit=1) == [key_a]
        # touch=False loads leave the recency untouched.
        stamp = store.last_access(key_a)
        assert store.load(key_a, touch=False) is not None
        assert store.last_access(key_a) == stamp


# ---------------------------------------------------------------------------
# metrics + stats line
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_latency_quantiles(self):
        metrics = ServeMetrics()
        for ms in range(1, 101):
            metrics.observe("sweep", ms / 1e3, tier="hot")
        snapshot = metrics.snapshot()
        assert snapshot["total"] == 100
        assert snapshot["tiers"]["hot"] == 100
        latency = snapshot["latency"]["sweep"]
        assert latency["p50_ms"] == pytest.approx(50.0)
        assert latency["p99_ms"] == pytest.approx(99.0)

    def test_format_stats_line_flattens(self):
        line = format_stats_line(
            "serve", {"requests": {"total": 3}, "p50_ms": 1.25,
                      "ok": True},
        )
        assert line == "serve requests.total=3 p50_ms=1.25 ok=true"
