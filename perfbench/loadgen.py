"""Closed-loop HTTP load generator for the ``served`` workload.

Each connection is a keep-alive client that sends its next request only
after the previous reply arrived, pulling requests in order from one
shared seeded stream.  Latency is client-observed: from just before the
request is written until the whole reply body is read.
"""

import http.client
import json
import threading
import time

#: A cold reduction takes a few seconds; a reply this late has failed.
REQUEST_TIMEOUT_S = 30.0


def _record(verb, key, status, latency, report, error=None):
    record = {
        "verb": verb, "key": key, "status": status, "latency_s": latency,
        "served_from": None, "wall_time_s": None, "rom_order": None,
        "hd2": None, "hd3": None, "output": None, "error": error,
    }
    if status == 200 and isinstance(report, dict):
        reduction = report.get("reduction") or {}
        record["served_from"] = reduction.get("served_from")
        record["rom_order"] = reduction.get("rom_order")
        record["wall_time_s"] = (report.get("serving") or {}).get(
            "wall_time_s"
        )
        sweep = report.get("sweep")
        if sweep is not None:
            record["hd2"] = sweep["hd2"]
            record["hd3"] = sweep["hd3"]
        transient = report.get("transient")
        if transient is not None:
            record["output"] = transient["output"]
    elif isinstance(report, dict):
        record["error"] = report.get("error", error)
    return record


def get_json(host, port, path, timeout=10.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def run_stream(host, port, requests, max_seconds, connections=2):
    """Send every ``(verb, payload, key)`` of *requests* (or stop
    sending after *max_seconds*); returns ``(records, wall_s)``."""
    lock = threading.Lock()
    records = []
    pending = iter(requests)
    start = time.perf_counter()

    def client():
        conn = http.client.HTTPConnection(
            host, port, timeout=REQUEST_TIMEOUT_S
        )
        headers = {"Content-Type": "application/json"}
        try:
            while True:
                with lock:
                    request = next(pending, None)
                    if (request is None
                            or time.perf_counter() - start >= max_seconds):
                        return
                verb, payload, key = request
                body = json.dumps(payload).encode("utf-8")
                sent = time.perf_counter()
                try:
                    conn.request("POST", f"/v1/{verb}", body=body,
                                 headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                    latency = time.perf_counter() - sent
                    record = _record(verb, key, response.status, latency,
                                     json.loads(data))
                except (OSError, http.client.HTTPException,
                        ValueError) as exc:
                    latency = time.perf_counter() - sent
                    record = _record(verb, key, 0, latency, None,
                                     error=f"{type(exc).__name__}: {exc}")
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=REQUEST_TIMEOUT_S
                    )
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, name=f"loadgen-{i}")
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max_seconds + REQUEST_TIMEOUT_S)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator connections did not finish")
    return records, wall
