"""``python -m repro serve`` — the long-lived HTTP/JSON daemon.

A deliberately small asyncio front door over
:class:`~repro.serve.service.ReproService`: stdlib only (no web
framework), HTTP/1.1 with keep-alive, JSON in / JSON out.  Endpoints
mirror the CLI verbs one-to-one::

    POST /v1/info      {"spec": {...}}
    POST /v1/reduce    {"spec": {...}, "reduce": {...}}
    POST /v1/sweep     {"spec": {...}, "reduce": {...}, "sweep": {...}}
    POST /v1/simulate  {"spec": {...}, "transient": {...}}
    POST /v1/mc        {"spec": {...}, "sweep": {...}, "mc": {...}}
    GET  /healthz
    GET  /metrics

Request bodies are the contract payloads of
:mod:`repro.serve.contracts`; response bodies are
``ServeOutcome.report()`` — byte-for-byte the pipeline report the
one-shot CLI prints (plus the additive serving metadata), because both
run the same service.  Memory settings are process-wide: the daemon
runs every request under the budget and block size its environment
gives it (``REPRO_MEMORY_BUDGET`` / ``REPRO_MAX_BLOCK``).

Concurrency model: the event loop only parses HTTP and routes; verb
work runs on a small thread pool (the numerical kernels release the
GIL, and the shared factorization and kernel caches are lock-guarded,
so handler threads can serve the same system at once).  The handler
threads are the daemon's only parallelism: :func:`run_daemon` puts
every OpenBLAS loaded in the process on one thread, because a threaded
BLAS call leaves its worker threads spinning after it returns, on the
cores the other handlers and their clients need.
The loop tracks in-flight requests and sheds load *before* dispatch —
a full queue answers ``429 Too Many Requests`` with ``Retry-After``
instead of queueing unboundedly.  Per-request deadlines answer ``504``
and flip the request's cooperative-cancel event; the worker thread
winds down at its next poll point (a sweep stops at its next
frequency).  Only reductions ignore request-scoped cancellation (an
``mc`` request, a family of reductions, runs whole): a reduction is
shared work, so once started it runs to completion and lands in the
caches, and a timed-out request cannot poison the state other
requests hit.  A request whose ``Content-Length`` is not a
non-negative integer gets ``400`` and the connection is closed (its
body's extent is unknown).
"""

import asyncio
import concurrent.futures
import contextlib
import ctypes
import functools
import json
import sys
import threading
import time

from ..analysis.reporting import format_stats_line
from ..errors import ReproError, TaskCancelled, ValidationError
from ..serialize import json_safe
from .contracts import REQUEST_TYPES
from .service import ReproService, ServeTimeout

__all__ = ["ServeDaemon", "run_daemon"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

#: Worker threads handling verb requests.  Small on purpose: they only
#: bound how many *requests* make progress at once; each request runs
#: its numerical work serially on its handler thread.
_HANDLERS = 4

#: Thread-count setters of the OpenBLAS builds numpy and scipy ship
#: (each wheel bundles its own copy, with or without the 64-bit-integer
#: symbol suffix) and of a plain system OpenBLAS.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _single_thread_blas():
    """Put every OpenBLAS mapped into this process on one thread.

    Returns how many libraries were set: 0 without ``/proc/self/maps``
    or without a loaded OpenBLAS (other BLAS builds are left alone).
    """
    try:
        with open("/proc/self/maps", encoding="ascii",
                  errors="replace") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            })
    except OSError:
        return 0
    count = 0
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter(1)
                count += 1
                break
    return count


class ServeDaemon:
    """Asyncio HTTP server over one :class:`ReproService`.

    Parameters
    ----------
    service : ReproService
    host, port : bind address; ``port=0`` picks a free port (read the
        resolved one from :attr:`port` after start).
    queue_limit : int
        Maximum in-flight verb requests; excess arrivals get 429.
    timeout : float or None
        Per-request deadline in seconds (504 past it).
    stats_interval : float or None
        Period of the one-line stats heartbeat on stderr.
    """

    def __init__(self, service, host="127.0.0.1", port=0, queue_limit=8,
                 timeout=None, stats_interval=None):
        self.service = service
        self.host = str(host)
        self.port = int(port)
        self.queue_limit = max(1, int(queue_limit))
        self.timeout = None if timeout is None else float(timeout)
        self.stats_interval = (
            None if stats_interval is None else float(stats_interval)
        )
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=_HANDLERS,
            thread_name_prefix="repro-serve",
        )
        self._inflight = 0
        self._conn_tasks = set()
        self._server = None
        self._stats_task = None
        self._started_monotonic = None
        self._loop = None
        self._thread = None

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    # -- request handling ----------------------------------------------------

    def _run_request(self, verb, payload, cancel_event):
        """Worker-thread body: validate, serve, map errors to status."""
        try:
            request = REQUEST_TYPES[verb].from_payload(payload)
            outcome = self.service.handle(
                request, cancel=cancel_event.is_set
            )
            return 200, outcome.report()
        except (TaskCancelled, ServeTimeout) as exc:
            return 504, {"error": str(exc)}
        except ValidationError as exc:
            return 400, {"error": str(exc)}
        except ReproError as exc:
            return 500, {"error": f"numerical failure: {exc}"}
        except Exception as exc:  # never kill the connection handler
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _dispatch_verb(self, verb, body):
        if self._inflight >= self.queue_limit:
            self.service.metrics.count_rejected()
            return 429, {
                "error": "server is at its in-flight request limit "
                f"({self.queue_limit}); retry shortly",
                "retry_after_s": 1,
            }
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError) as exc:
            self.service.metrics.count_error()
            return 400, {"error": f"request body is not valid JSON ({exc})"}
        loop = asyncio.get_running_loop()
        cancel_event = threading.Event()
        self._inflight += 1
        future = loop.run_in_executor(
            self._pool,
            functools.partial(
                self._run_request, verb, payload, cancel_event
            ),
        )
        # Honest accounting: the slot frees when the worker actually
        # finishes — a timed-out request still occupies it until its
        # thread winds down at the next cancellation poll.
        future.add_done_callback(lambda _f: self._release_slot())
        try:
            # shield: on timeout only the wait is abandoned — the
            # executor future (and its thread) runs to completion and
            # releases its slot through the done callback.
            status, report = await asyncio.wait_for(
                asyncio.shield(future), self.timeout
            )
        except asyncio.TimeoutError:
            cancel_event.set()
            self.service.metrics.count_timeout()
            return 504, {
                "error": "request exceeded the per-request deadline "
                f"({self.timeout:g}s)",
            }
        if status not in (200, 504):
            self.service.metrics.count_error()
        elif status == 504:
            self.service.metrics.count_timeout()
        return status, report

    def _release_slot(self):
        self._inflight = max(0, self._inflight - 1)

    async def _dispatch(self, method, path, body):
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            uptime = (
                time.monotonic() - self._started_monotonic
                if self._started_monotonic is not None else 0.0
            )
            return 200, {"status": "ok", "uptime_s": uptime}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}
            stats = self.service.stats()
            stats["queue"] = {
                "depth": int(self._inflight),
                "limit": int(self.queue_limit),
            }
            return 200, stats
        if path.startswith("/v1/"):
            verb = path[len("/v1/"):]
            if verb not in REQUEST_TYPES:
                return 404, {
                    "error": f"unknown verb {verb!r}; expected one of "
                    f"{sorted(REQUEST_TYPES)}",
                }
            if method != "POST":
                return 405, {"error": f"/v1/{verb} is POST-only"}
            return await self._dispatch_verb(verb, body)
        return 404, {"error": f"unknown path {path!r}"}

    @staticmethod
    async def _reply(writer, status, report, keep_alive):
        data = json.dumps(
            json_safe(report), default=repr, allow_nan=False
        ).encode("utf-8")
        head_lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
        ]
        if status == 429:
            head_lines.append("Retry-After: 1")
        head_lines.append(
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
        )
        writer.write(
            ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
            + data
        )
        await writer.drain()

    async def _handle_conn(self, reader, writer):
        # Track the connection task so stop() can cancel idle
        # keep-alive connections instead of abandoning them mid-await.
        # Deregistration must be a done callback (not a finally here):
        # the task still awaits wait_closed() after its finally starts,
        # and stop() has to be able to see it until it truly finishes.
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break  # client closed between requests
                lines = head.decode("latin-1").split("\r\n")
                try:
                    method, path, _version = lines[0].split(" ", 2)
                except ValueError:
                    break  # not HTTP; drop the connection
                headers = {}
                for line in lines[1:]:
                    name, sep, value = line.partition(":")
                    if sep:
                        headers[name.strip().lower()] = value.strip()
                raw_length = headers.get("content-length") or "0"
                if not (raw_length.isascii() and raw_length.isdigit()):
                    # The body's extent is unknown, so the stream cannot
                    # be resynchronised: answer 400 and close.
                    self.service.metrics.count_error()
                    await self._reply(writer, 400, {
                        "error": f"malformed Content-Length {raw_length!r}",
                    }, keep_alive=False)
                    break
                length = int(raw_length)
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                status, report = await self._dispatch(
                    method.upper(), path.split("?", 1)[0], body
                )
                await self._reply(writer, status, report, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # stop() shutting down an idle keep-alive connection
        finally:
            writer.close()
            # CancelledError included: stop() may cancel a task that is
            # already draining here; swallowing it lets the task finish
            # clean instead of ending "cancelled" (which asyncio logs).
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    # -- lifecycle -----------------------------------------------------------

    async def _stats_heartbeat(self):
        while True:
            await asyncio.sleep(self.stats_interval)
            stats = self.service.stats()
            metrics = stats.get("metrics", {})
            line = {
                "requests": metrics.get("total", 0),
                "tiers": metrics.get("tiers", {}),
                "mc_tiers": metrics.get("parametric_tiers", {}),
                "rejected": metrics.get("rejected", 0),
                "timeouts": metrics.get("timeouts", 0),
                "queue_depth": int(self._inflight),
                "hot": {
                    key: stats.get("hot_cache", {}).get(key)
                    for key in ("entries", "hits", "misses")
                },
                "latency": {
                    verb: {
                        "p50_ms": values.get("p50_ms"),
                        "p99_ms": values.get("p99_ms"),
                    }
                    for verb, values in metrics.get("latency", {}).items()
                },
            }
            print(
                format_stats_line("serve-stats", line),
                file=sys.stderr, flush=True,
            )

    async def start(self):
        """Bind and start accepting; resolves ``port=0`` to the real one."""
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        if self.stats_interval:
            self._stats_task = asyncio.ensure_future(
                self._stats_heartbeat()
            )
        return self.url

    async def stop(self):
        if self._stats_task is not None:
            self._stats_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._stats_task
            self._stats_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        remaining = list(self._conn_tasks)
        for task in remaining:
            task.cancel()
        if remaining:
            await asyncio.gather(*remaining, return_exceptions=True)

    async def serve_forever(self):
        await self._server.serve_forever()

    # -- background mode (tests, in-process clients) -------------------------

    def start_background(self):
        """Run the daemon on a dedicated thread; returns its URL.

        For tests and in-process clients: spins an event loop on a
        daemon thread, starts the server, and blocks until the port is
        bound.  Pair with :meth:`stop_background`.
        """
        ready = threading.Event()
        failure = []

        def runner():
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to caller
                failure.append(exc)
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise ReproError("serve daemon failed to start within 30s")
        if failure:
            raise failure[0]
        return self.url

    def stop_background(self):
        """Stop a :meth:`start_background` daemon and join its thread."""
        loop, self._loop = self._loop, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self._pool.shutdown(wait=True)


def run_daemon(service, host="127.0.0.1", port=0, queue_limit=8,
               timeout=None, stats_interval=None):
    """Blocking entry point for ``python -m repro serve``.

    Prints one ``serving on http://host:port`` line to stdout once the
    socket is bound (clients and the CI smoke test parse it — with
    ``--port 0`` it is the only way to learn the picked port), then
    serves until interrupted.  Returns the process exit code.  The
    process's OpenBLAS stays on one thread from here on (see the module
    docstring).
    """
    _single_thread_blas()
    daemon = ServeDaemon(
        service, host=host, port=port, queue_limit=queue_limit,
        timeout=timeout, stats_interval=stats_interval,
    )

    async def main():
        await daemon.start()
        print(f"serving on {daemon.url}", flush=True)
        try:
            await daemon.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await daemon.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        daemon._pool.shutdown(wait=False)
    return 0
