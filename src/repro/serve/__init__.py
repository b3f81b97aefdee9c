"""Serving layer: the long-lived front end of the offline/online split.

The paper's economics — reduce once offline, answer distortion and
transient queries cheaply online — only pay off operationally when the
expensive state *stays resident*.  This package is that residency:

* :mod:`~repro.serve.contracts` — typed request/response contracts,
  validated at the boundary and shared by the one-shot CLI and the
  daemon, so both fronts run the identical code path.  Requests carry
  jobs only;
* :mod:`~repro.serve.service` — :class:`ReproService`, the serving
  core: per-spec compilation + fingerprint caching, one handler for
  ``reduce``/``sweep``/``simulate`` over the three reduce tiers
  (hot-memory / warm-disk / cold-compute), single-flight misses,
  cooperative deadlines;
* :mod:`~repro.serve.cache` — :class:`HotROMCache`, the size-bounded
  LRU of reduction artifacts (basis-SHA verified on admit) with their
  primed explicit systems;
* :mod:`~repro.serve.metrics` — :class:`ServeMetrics`, counters and
  latency quantiles behind ``/metrics`` and the stats heartbeat;
* :mod:`~repro.serve.daemon` — :class:`ServeDaemon`, the stdlib
  asyncio HTTP/JSON front door (``python -m repro serve``) with
  bounded in-flight queueing (429 + Retry-After) and per-request
  timeouts (504).
"""

from .cache import CacheEntry, HotROMCache
from .contracts import (
    REQUEST_TYPES,
    InfoRequest,
    McRequest,
    ReduceRequest,
    ServeOutcome,
    SimulateRequest,
    SweepRequest,
)
from .daemon import ServeDaemon, run_daemon
from .metrics import ServeMetrics
from .service import LoadedSpec, ReproService, ServeTimeout

__all__ = [
    "CacheEntry",
    "HotROMCache",
    "REQUEST_TYPES",
    "InfoRequest",
    "ReduceRequest",
    "SweepRequest",
    "SimulateRequest",
    "McRequest",
    "ServeOutcome",
    "ServeDaemon",
    "run_daemon",
    "ServeMetrics",
    "LoadedSpec",
    "ReproService",
    "ServeTimeout",
]
