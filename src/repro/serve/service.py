"""The serving core: one object that answers all pipeline verbs.

:class:`ReproService` is the code path *both* front doors run — the
one-shot CLI (``python -m repro reduce/sweep/simulate/info``) and the
long-lived HTTP daemon (``python -m repro serve``) build a contract
request (:mod:`repro.serve.contracts`) and call :meth:`~ReproService.
handle`.  Internally it reuses the pipeline's factored steps
(:func:`~repro.pipeline._reduce_step` / ``_sweep_result`` /
``_transient_result``) and assembles an ordinary
:class:`~repro.pipeline.PipelineResult`, so a served report is the
pipeline report plus additive serving metadata — never a parallel
reimplementation that could drift.

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
  requests for the same key single-flight behind a per-key lock.
* **Request coalescing** — concurrent sweeps on the same ROM and
  amplitude merge their frequency grids into one
  :class:`~repro.serve.coalesce.SweepCoalescer` flight.
* **Cooperative deadlines** — *cancel* (a zero-argument callable) is
  polled by the per-request work (compare-full sweeps, uncoalesced
  grids) and raises :class:`~repro.errors.TaskCancelled`; shared work
  (reductions, coalesced flights) always runs to completion, so a
  timed-out request can never poison state other requests see.
"""

import contextlib
import hashlib
import json
import threading
import time
from collections import OrderedDict

from .. import memory
from .._validation import check_positive_int
from ..analysis.distortion import distortion_sweep
from ..errors import ReproError, TaskCancelled, ValidationError
from ..pipeline import (
    PipelineResult,
    _reduce_step,
    _sweep_result,
    _transient_result,
    run_parametric,
    system_from_spec,
)
from ..store import ModelStore, artifact_key
from ..store.modelstore import fingerprint_system
from ..systems.polynomial import PolynomialODE
from .cache import HotROMCache
from .coalesce import SweepCoalescer
from .contracts import ServeOutcome
from .metrics import ServeMetrics

__all__ = ["LoadedSpec", "ReproService", "ServeTimeout"]

#: Spec sections that configure *jobs*, not the system: two specs that
#: differ only here compile to the same system and share one cache slot.
_JOB_SECTIONS = frozenset(
    {"reduce", "sweep", "transient", "mc", "description"}
)


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
    spec_capacity : int
        Bound on resident compiled specs.
    coalesce : bool
        Merge concurrent same-ROM sweeps into union flights (on by
        default; the benchmark's uncoalesced mode turns it off).
    """

    def __init__(self, store=None, hot_capacity=8, spec_capacity=32,
                 coalesce=True, metrics=None):
        if store is not None and not isinstance(store, ModelStore):
            store = ModelStore(store)
        self.store = store
        self.cache = HotROMCache(hot_capacity)
        self.coalescer = SweepCoalescer()
        self.coalesce = bool(coalesce)
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.spec_capacity = check_positive_int(
            spec_capacity, "spec_capacity"
        )
        self.spec_hits = 0
        self.spec_misses = 0
        self._specs = OrderedDict()
        self._spec_lock = threading.Lock()
        self._reduce_locks = {}
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
            while len(self._specs) > self.spec_capacity:
                self._specs.popitem(last=False)
        return loaded

    @staticmethod
    def _require_polynomial(system):
        if not isinstance(system, PolynomialODE):
            raise ValidationError(
                f"serve jobs need a polynomial system "
                f"(QLDAE/CubicODE/PolynomialODE, or an ExponentialODE "
                f"to lift); got {type(system).__name__}.  For LTI "
                "StateSpace models use repro.mor.reduce_lti or "
                "balanced_truncation directly."
            )

    # -- the three-tier reduce step ------------------------------------------

    def _acquire(self, loaded, reduce_job, checkpoint=None, resume=False,
                 cancel=None):
        """Acquire the reduction for (*loaded*, *reduce_job*).

        Returns ``(entry, artifact, tier, store_hit, reduce_time,
        checkpoint_info, key)`` with *tier* one of ``"hot"`` /
        ``"disk"`` / ``"cold"``.  Misses single-flight behind a per-key
        lock so N concurrent cold requests compute once; the result is
        admitted to the hot cache (and, via ``_reduce_step``, the
        store) for the next request.  Explicit *checkpoint*/*resume*
        requests bypass the hot tier — their contract is about on-disk
        build state, which only the full reduce path honours.
        """
        reducer = reduce_job.reducer()
        key = artifact_key(
            loaded.system, reducer,
            system_fingerprint=loaded.fingerprint(),
        )
        use_hot = not (checkpoint or resume)
        start = time.perf_counter()
        if use_hot:
            entry = self.cache.get(key)
            if entry is not None:
                store_hit = True if self.store is not None else None
                reduce_time = time.perf_counter() - start
                return (entry, entry.artifact, "hot", store_hit,
                        reduce_time, None, key)
        with self._locks_lock:
            lock = self._reduce_locks.setdefault(key, threading.Lock())
        with lock:
            if use_hot:
                entry = self.cache.get(key)
                if entry is not None:  # populated while we queued
                    store_hit = True if self.store is not None else None
                    reduce_time = time.perf_counter() - start
                    return (entry, entry.artifact, "hot", store_hit,
                            reduce_time, None, key)
            if cancel is not None and cancel():
                raise TaskCancelled(
                    "request cancelled before its reduce step started"
                )
            artifact, store_hit, reduce_time, checkpoint_info = (
                _reduce_step(
                    loaded.system, reduce_job, store=self.store,
                    checkpoint=checkpoint, resume=resume,
                    system_fingerprint=loaded.fingerprint(),
                )
            )
            tier = "disk" if store_hit else "cold"
            entry = self.cache.put(key, artifact)
            return (entry, artifact, tier, store_hit, reduce_time,
                    checkpoint_info, key)

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
        with contextlib.ExitStack() as stack:
            budget = getattr(request, "memory_budget", None)
            if budget is not None:
                stack.enter_context(memory.limit(budget))
            max_block = getattr(request, "max_block", None)
            if max_block is not None:
                stack.enter_context(memory.tiling(max_block))
            if verb == "info":
                outcome = self._info(request)
            elif verb == "reduce":
                outcome = self._reduce(request, cancel)
            elif verb == "sweep":
                outcome = self._sweep(request, cancel)
            elif verb == "simulate":
                outcome = self._simulate(request, cancel)
            elif verb == "mc":
                outcome = self._mc(request)
            else:
                raise ValidationError(f"unknown serve verb {verb!r}")
        outcome.wall_time_s = time.perf_counter() - start
        self.metrics.observe(
            verb, outcome.wall_time_s, tier=outcome.served_from
        )
        return outcome

    def _memory_info(self, request):
        budget = getattr(request, "memory_budget", None)
        max_block = getattr(request, "max_block", None)
        if budget is None and max_block is None:
            return None
        return memory.stats()

    def _info(self, request):
        loaded = self._load(request.spec, request.sparse)
        result = PipelineResult(loaded.system, loaded.info)
        return ServeOutcome("info", result)

    def _reduce(self, request, cancel):
        loaded = self._load(request.spec, request.sparse)
        self._require_polynomial(loaded.system)
        _, artifact, tier, store_hit, reduce_time, checkpoint_info, key = (
            self._acquire(
                loaded, request.reduce_job,
                checkpoint=request.checkpoint, resume=request.resume,
                cancel=cancel,
            )
        )
        result = PipelineResult(
            loaded.system, loaded.info,
            artifact=artifact, rom=artifact.rom, store_hit=store_hit,
            reduce_time=reduce_time,
            jobs={"reduce": request.reduce_job},
            checkpoint_info=checkpoint_info,
            memory_info=self._memory_info(request),
        )
        return ServeOutcome(
            "reduce", result, served_from=tier, artifact_key=key,
        )

    def _sweep(self, request, cancel):
        loaded = self._load(request.spec, request.sparse)
        self._require_polynomial(loaded.system)
        sweep_job = request.sweep_job
        jobs = {"sweep": sweep_job}
        artifact = rom = None
        tier = store_hit = reduce_time = checkpoint_info = key = None
        explicit_query = None
        evaluate = None
        if request.reduce_job is not None:
            entry, artifact, tier, store_hit, reduce_time, \
                checkpoint_info, key = self._acquire(
                    loaded, request.reduce_job,
                    checkpoint=request.checkpoint,
                    resume=request.resume, cancel=cancel,
                )
            rom = artifact.rom
            jobs = {"reduce": request.reduce_job, "sweep": sweep_job}
            if entry is not None:
                if self.coalesce:
                    explicit = entry.explicit()

                    def evaluate(omegas, amplitude, _key=key,
                                 _explicit=explicit):
                        # Shared flight: deliberately no cancel — the
                        # union solve benefits every coalesced waiter.
                        return self.coalescer.sweep(
                            _key, amplitude, omegas,
                            lambda union: distortion_sweep(
                                _explicit, union, amplitude=amplitude,
                            )[1:],
                        )
                else:
                    explicit_query = entry.explicit()
        else:
            explicit_query = loaded.explicit()
        sweep_result = _sweep_result(
            loaded.system, rom, sweep_job,
            explicit_query=explicit_query, evaluate=evaluate,
            cancel=cancel,
        )
        result = PipelineResult(
            loaded.system, loaded.info,
            artifact=artifact, rom=rom, store_hit=store_hit,
            reduce_time=reduce_time, sweep=sweep_result, jobs=jobs,
            checkpoint_info=checkpoint_info,
            memory_info=self._memory_info(request),
        )
        return ServeOutcome(
            "sweep", result, served_from=tier, artifact_key=key,
        )

    def _simulate(self, request, cancel):
        loaded = self._load(request.spec, request.sparse)
        self._require_polynomial(loaded.system)
        jobs = {"transient": request.transient_job}
        artifact = rom = None
        tier = store_hit = reduce_time = checkpoint_info = key = None
        if request.reduce_job is not None:
            _, artifact, tier, store_hit, reduce_time, \
                checkpoint_info, key = self._acquire(
                    loaded, request.reduce_job,
                    checkpoint=request.checkpoint,
                    resume=request.resume, cancel=cancel,
                )
            rom = artifact.rom
            jobs = {
                "reduce": request.reduce_job,
                "transient": request.transient_job,
            }
        if cancel is not None and cancel():
            raise TaskCancelled(
                "request cancelled before its transient started"
            )
        transient_result = _transient_result(
            loaded.system, rom, request.transient_job
        )
        result = PipelineResult(
            loaded.system, loaded.info,
            artifact=artifact, rom=rom, store_hit=store_hit,
            reduce_time=reduce_time, transient=transient_result,
            jobs=jobs, checkpoint_info=checkpoint_info,
            memory_info=self._memory_info(request),
        )
        return ServeOutcome(
            "simulate", result, served_from=tier, artifact_key=key,
        )

    def _mc(self, request):
        """Serve one parametric multi-corner / Monte-Carlo request.

        Delegates to :func:`~repro.pipeline.run_parametric` against the
        service's store (so corner reductions dedup across requests and
        daemon restarts) and folds the run's per-reuse-tier counters
        into :meth:`ServeMetrics.record_tiers` — the ``/metrics``
        ``parametric_tiers`` block and the heartbeat's ``mc_tiers``
        field.  The hot-ROM cache and the coalescer are not involved:
        a family sweep is one batch, not a stream of repeat queries.
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
                "capacity": int(self.spec_capacity),
                "entries": len(self._specs),
                "hits": int(self.spec_hits),
                "misses": int(self.spec_misses),
            }
        data = {
            "metrics": self.metrics.snapshot(),
            "hot_cache": self.cache.stats(),
            "coalescer": self.coalescer.stats(),
            "specs": specs,
        }
        if self.store is not None:
            data["store"] = self.store.stats()
            data["store"]["root"] = str(self.store.root)
        return data
