"""The serving core: one object that answers all pipeline verbs.

:class:`ReproService` is the code path *both* front doors run — the
one-shot CLI (``python -m repro reduce/sweep/simulate/mc/info``) and
the long-lived HTTP daemon (``python -m repro serve``) build a contract
request (:mod:`repro.serve.contracts`) and call :meth:`~ReproService.
handle`.  ``reduce``, ``sweep`` and ``simulate`` share one handler: it
acquires the reduction, then hands it to the pipeline's own result
builder (:func:`~repro.pipeline._job_result`, which runs the sweep or
transient and assembles the :class:`~repro.pipeline.PipelineResult`),
so a served report is the pipeline report plus additive serving
metadata — never a parallel reimplementation that could drift.

What the service adds over a bare ``run_pipeline`` call is the
long-lived-process machinery:

* **Spec cache** — each distinct spec (job sections excluded) is
  compiled once; its structural fingerprint is computed once, lazily,
  and threaded down so neither the store key nor the artifact
  provenance re-hashes the system matrices per request.
* **Three serving tiers** for the reduce step, each measurably faster
  than the one below: ``"hot"`` (in-memory
  :class:`~repro.serve.cache.HotROMCache`, primed explicit system
  retained), ``"disk"`` (content-addressed
  :class:`~repro.store.ModelStore` load), ``"cold"`` (computed this
  request, then admitted to both lower tiers).  Concurrent cold
  requests for the same key single-flight behind a per-key lock, which
  lives only while a request holds or waits on it.
* **Cooperative deadlines** — *cancel* (a zero-argument callable) is
  polled by every per-request step (sweeps, and the start of a
  transient or of a reduction) and raises
  :class:`~repro.errors.TaskCancelled`; a reduction, once started, is
  shared work and runs to completion, so a timed-out request can never
  poison state other requests see.
"""

import contextlib
import hashlib
import json
import threading
import time
from collections import OrderedDict

from ..errors import ReproError, TaskCancelled, ValidationError
from ..pipeline import (
    PipelineResult,
    _job_result,
    _reduce_step,
    _require_polynomial,
    run_parametric,
    system_from_spec,
)
from ..store import ModelStore, artifact_key
from ..store.modelstore import fingerprint_system
from .cache import HotROMCache
from .contracts import ServeOutcome
from .metrics import ServeMetrics

__all__ = ["LoadedSpec", "ReproService", "ServeTimeout"]

#: Spec sections that configure *jobs*, not the system: two specs that
#: differ only here compile to the same system and share one cache slot.
_JOB_SECTIONS = frozenset(
    {"reduce", "sweep", "transient", "mc", "description"}
)

#: Bound on resident compiled specs (LRU beyond it).
_SPEC_CAPACITY = 32


class ServeTimeout(ReproError):
    """A served request exceeded its deadline (HTTP 504).

    Raised at the serving boundary when per-request work was
    cooperatively cancelled or the reply deadline passed.  Shared state
    (model store, hot cache, memoized kernels) is unaffected — the
    cancelled work either never started or completed deterministically.
    """


def _spec_digest(spec, sparse):
    """Canonical digest of a spec's *system-defining* content."""
    trimmed = {
        key: value for key, value in spec.items()
        if key not in _JOB_SECTIONS
    }
    encoded = json.dumps(trimmed, sort_keys=True, default=repr)
    digest = hashlib.sha256()
    digest.update(f"sparse={sparse!r}".encode())
    digest.update(encoded.encode("utf-8"))
    return digest.hexdigest()


class LoadedSpec:
    """One compiled spec, resident in a serving process.

    Holds the built (and possibly lifted) system plus two lazily
    computed, then retained, derivatives:

    * :meth:`fingerprint` — the structural fingerprint, computed once
      per loaded spec however many requests key the store with it;
    * :meth:`explicit` — the full system's ``to_explicit()`` form (with
      its memoized Volterra evaluator), so repeated full-model sweeps
      skip re-priming exactly like hot-ROM sweeps do.
    """

    __slots__ = ("digest", "system", "info", "_fingerprint", "_explicit",
                 "_lock")

    def __init__(self, digest, system, info):
        self.digest = digest
        self.system = system
        self.info = info
        self._fingerprint = None
        self._explicit = None
        self._lock = threading.Lock()

    def fingerprint(self):
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = fingerprint_system(self.system)
            return self._fingerprint

    def explicit(self):
        with self._lock:
            if self._explicit is None:
                self._explicit = self.system.to_explicit()
            return self._explicit

    def __repr__(self):
        return (
            f"LoadedSpec({self.digest[:12]}..., "
            f"n={self.info.get('n_states')})"
        )


class ReproService:
    """Thread-safe serving core shared by the CLI and the daemon.

    Parameters
    ----------
    store : ModelStore, path, or None
        The on-disk tier.  Without one, reductions still serve from the
        in-memory hot tier but cold misses always recompute.
    hot_capacity : int
        Entry bound of the hot-ROM cache (0 disables it).
    """

    def __init__(self, store=None, hot_capacity=8):
        if store is not None and not isinstance(store, ModelStore):
            store = ModelStore(store)
        self.store = store
        self.cache = HotROMCache(hot_capacity)
        self.metrics = ServeMetrics()
        self.spec_hits = 0
        self.spec_misses = 0
        self._specs = OrderedDict()
        self._spec_lock = threading.Lock()
        self._reduce_locks = {}  # key -> [lock, holders + waiters]
        self._locks_lock = threading.Lock()

    # -- spec residency ------------------------------------------------------

    def _load(self, spec, sparse):
        """The resident :class:`LoadedSpec` for (*spec*, *sparse*)."""
        digest = _spec_digest(spec, sparse)
        with self._spec_lock:
            loaded = self._specs.get(digest)
            if loaded is not None:
                self._specs.move_to_end(digest)
                self.spec_hits += 1
                return loaded
        # Compile outside the lock — MNA assembly can be heavy, and
        # racing builders of the same digest produce equivalent systems
        # (first one registered wins).
        system, info = system_from_spec(spec, sparse=sparse)
        loaded = LoadedSpec(digest, system, info)
        with self._spec_lock:
            existing = self._specs.get(digest)
            if existing is not None:
                self._specs.move_to_end(digest)
                self.spec_hits += 1
                return existing
            self.spec_misses += 1
            self._specs[digest] = loaded
            while len(self._specs) > _SPEC_CAPACITY:
                self._specs.popitem(last=False)
        return loaded

    # -- the three-tier reduce step ------------------------------------------

    @contextlib.contextmanager
    def _single_flight(self, key):
        """Hold *key*'s reduce lock.

        The lock-table entry counts the requests holding or waiting on
        it and is dropped when the last one leaves, so the table stays
        as small as the set of keys in flight.
        """
        with self._locks_lock:
            flight = self._reduce_locks.get(key)
            if flight is None:
                flight = self._reduce_locks[key] = [threading.Lock(), 0]
            flight[1] += 1
        try:
            with flight[0]:
                yield
        finally:
            with self._locks_lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._reduce_locks[key]

    def _acquire(self, loaded, request, cancel):
        """Acquire the reduction *request* asks for on *loaded*.

        Returns ``(entry, reduction, tier, key)``: the hot-cache entry
        (``None`` when the cache refused or is disabled), the
        ``(artifact, store_hit, reduce_time, checkpoint_info)`` tuple of
        :func:`~repro.pipeline._reduce_step`, the *tier* (``"hot"`` /
        ``"disk"`` / ``"cold"``) and the store key.  Misses
        single-flight behind a per-key lock so N concurrent cold
        requests compute once; the result is admitted to the hot cache
        (and, via ``_reduce_step``, the store) for the next request.
        Explicit *checkpoint*/*resume* requests bypass the hot tier —
        their contract is about on-disk build state, which only the
        full reduce path honours.
        """
        key = artifact_key(
            loaded.system, request.reduce_job.reducer(),
            system_fingerprint=loaded.fingerprint(),
        )
        use_hot = not (request.checkpoint or request.resume)
        start = time.perf_counter()
        entry = self.cache.get(key) if use_hot else None
        if entry is None:
            with self._single_flight(key):
                # A racing request may have admitted it while we queued.
                entry = self.cache.get(key) if use_hot else None
                if entry is None:
                    if cancel is not None and cancel():
                        raise TaskCancelled(
                            "request cancelled before its reduce step "
                            "started"
                        )
                    reduction = _reduce_step(
                        loaded.system, request.reduce_job,
                        store=self.store, checkpoint=request.checkpoint,
                        resume=request.resume,
                        system_fingerprint=loaded.fingerprint(),
                    )
                    tier = "disk" if reduction[1] else "cold"
                    entry = self.cache.put(key, reduction[0])
                    return entry, reduction, tier, key
        store_hit = True if self.store is not None else None
        reduction = (
            entry.artifact, store_hit, time.perf_counter() - start, None
        )
        return entry, reduction, "hot", key

    # -- verbs ---------------------------------------------------------------

    def handle(self, request, cancel=None):
        """Serve one contract request; returns a :class:`ServeOutcome`.

        *cancel* is the request-scoped cooperative-cancellation poll
        (the daemon wires it to its per-request timeout); only
        per-request work observes it.  Successful requests are recorded
        in :attr:`metrics` with their serving tier.
        """
        start = time.perf_counter()
        verb = request.verb
        if verb == "info":
            outcome = self._info(request)
        elif verb in ("reduce", "sweep", "simulate"):
            outcome = self._job(request, cancel)
        elif verb == "mc":
            outcome = self._mc(request)
        else:
            raise ValidationError(f"unknown serve verb {verb!r}")
        outcome.wall_time_s = time.perf_counter() - start
        self.metrics.observe(
            verb, outcome.wall_time_s, tier=outcome.served_from
        )
        return outcome

    def _info(self, request):
        loaded = self._load(request.spec, request.sparse)
        result = PipelineResult(loaded.system, loaded.info)
        return ServeOutcome("info", result)

    def _job(self, request, cancel):
        """Answer ``reduce``, ``sweep`` and ``simulate``.

        Takes the reduction (when one is configured) from the hot, disk
        or cold tier, then runs the request's sweep or transient through
        :func:`~repro.pipeline._job_result` — on the ROM, or on the
        full model without a reduction.  Sweeps query a retained
        explicit system (the hot entry's, or the loaded spec's full
        model), so repeat sweeps skip re-priming the Volterra kernels.
        """
        loaded = self._load(request.spec, request.sparse)
        _require_polynomial(loaded.system)
        entry = reduction = tier = key = None
        if request.reduce_job is not None:
            entry, reduction, tier, key = self._acquire(
                loaded, request, cancel
            )
        explicit = None
        if request.sweep_job is not None:
            if request.reduce_job is None:
                explicit = loaded.explicit()
            elif entry is not None:
                explicit = entry.explicit()
        result = _job_result(
            loaded.system, loaded.info, request.reduce_job,
            request.sweep_job, request.transient_job, reduction,
            explicit_query=explicit, cancel=cancel,
        )
        return ServeOutcome(
            request.verb, result, served_from=tier, artifact_key=key,
        )

    def _mc(self, request):
        """Serve one parametric multi-corner / Monte-Carlo request.

        Delegates to :func:`~repro.pipeline.run_parametric` against the
        service's store (so corner reductions dedup across requests and
        daemon restarts) and folds the run's per-reuse-tier counters
        into :meth:`ServeMetrics.record_tiers` — the ``/metrics``
        ``parametric_tiers`` block and the heartbeat's ``mc_tiers``
        field.  The hot-ROM cache is not involved: a family sweep is one
        batch, not a stream of repeat queries.
        """
        result = run_parametric(
            request.spec,
            reduce=request.reduce_job,
            sweep=request.sweep_job,
            mc=request.mc_job,
            store=self.store,
            sparse=request.sparse,
        )
        self.metrics.record_tiers(result.tiers)
        return ServeOutcome("mc", result)

    # -- introspection -------------------------------------------------------

    def warm_start(self, limit=None):
        """Pre-load the hot cache from the store's recency order."""
        if self.store is None:
            return 0
        return self.cache.warm_start(self.store, limit=limit)

    def stats(self):
        """JSON-safe state of every serving layer (feeds ``/metrics``)."""
        with self._spec_lock:
            specs = {
                "capacity": _SPEC_CAPACITY,
                "entries": len(self._specs),
                "hits": int(self.spec_hits),
                "misses": int(self.spec_misses),
            }
        data = {
            "metrics": self.metrics.snapshot(),
            "hot_cache": self.cache.stats(),
            "specs": specs,
        }
        if self.store is not None:
            data["store"] = self.store.stats()
            data["store"]["root"] = str(self.store.root)
        return data
