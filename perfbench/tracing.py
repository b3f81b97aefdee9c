"""Span tracing for the benchmark's traced run.

:func:`install` wraps public entry points of each library layer in the
running process (nothing under ``src/`` changes) and records one span per
call: name, start, end, parent span, root span (the request or job the
call belongs to) and thread.  Counters come from what the library
already exposes -- the solvers', factories' and evaluators' ``stats``
dicts (registered when each object is constructed), simulation results,
Pi factor ranks, basis-build details and store entry sizes -- read at the
same boundaries.  Spans stay in memory until :meth:`Tracer.snapshot`.

A layer's self time is its spans' durations minus the time covered by
their child spans (children run on the parent's thread, so they never
overlap each other).
"""

import functools
import statistics
import sys
import threading
import time
import weakref


class Tracer:
    """In-memory span and counter recorder (thread-safe)."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.maxima = {}
        self.values = {}
        #: While set, wrappers call through without recording (the
        #: reference computations behind the output checks).
        self.paused = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._stat_dicts = {"lu": [], "kron": [], "evaluator": []}
        self._rom_ids = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "root": span_id if parent is None else parent["root"],
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- counters ------------------------------------------------------------

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def observe(self, name, value):
        with self._lock:
            self.values.setdefault(name, []).append(value)

    def register_stats(self, kind, stats):
        if isinstance(stats, dict):
            with self._lock:
                self._stat_dicts[kind].append(stats)

    def mark_rom(self, system):
        try:
            ref = weakref.ref(system)
        except TypeError:
            return
        with self._lock:
            self._rom_ids[id(system)] = ref

    def is_rom(self, system):
        ref = self._rom_ids.get(id(system))
        return ref is not None and ref() is system

    def snapshot(self):
        """JSON-able spans plus summed, maximal and listed counters."""
        with self._lock:
            counters = dict(self.counters)
            for kind, dicts in self._stat_dicts.items():
                for stats in dicts:
                    for key, value in stats.items():
                        name = f"{kind}.{key}"
                        counters[name] = counters.get(name, 0) + int(value)
            return {
                "spans": list(self.spans),
                "counters": counters,
                "maxima": dict(self.maxima),
                "values": {k: list(v) for k, v in self.values.items()},
            }


def _traced(tracer, name, fn, before=None, after=None):
    """*fn* wrapped in a span; hooks read counters around the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        state = before(args) if before is not None else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, state, args, result)
        return result

    return wrapper


def _after_init(tracer, fn, hook):
    """*fn* (an ``__init__``) followed by ``hook(self)``; no span."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        if not tracer.paused:
            hook(self)

    return wrapper


def _replace_function(original, replacement):
    """Rebind every ``repro`` module attribute naming *original*."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(cls, attr, make):
    original = cls.__dict__.get(attr)
    if original is not None:
        setattr(cls, attr, make(original))


def install(tracer):
    """Wrap the library's layer entry points so *tracer* sees them.

    Call once per process, before the first job.  Entry points missing
    from an older library version are skipped.
    """
    import repro.analysis.distortion as distortion
    import repro.cli  # noqa: F401  (loads every module that rebinds names)
    import repro.linalg.resolvent as resolvent
    import repro.linalg.sylvester as sylvester
    import repro.mor.base as mor_base
    import repro.pipeline as pipeline
    import repro.simulation.transient as transient
    import repro.store.modelstore as modelstore
    import repro.systems.exponential as exponential
    import repro.systems.polynomial as polynomial
    import repro.volterra.evaluator as evaluator
    from repro.circuits.netlist import Netlist
    from repro.mor.assoc import AssociatedTransformMOR
    from repro.serve.service import ReproService

    def method(cls, attr, name, before=None, after=None):
        _wrap_method(
            cls, attr,
            lambda fn: _traced(tracer, name, fn, before, after),
        )

    def function(module, attr, name, before=None, after=None):
        original = getattr(module, attr, None)
        if original is not None:
            _replace_function(
                original, _traced(tracer, name, original, before, after)
            )

    # circuits / systems
    method(Netlist, "compile", "circuits.compile")
    method(exponential.ExponentialODE, "quadratic_linearize", "systems.lift")

    def explicit_after(span, state, args, result):
        if tracer.is_rom(args[0]):
            tracer.mark_rom(result)

    method(polynomial.PolynomialODE, "to_explicit", "systems.explicit",
           after=explicit_after)
    method(polynomial.PolynomialODE, "project", "systems.project")
    _wrap_method(
        mor_base.ReducedOrderModel, "__init__",
        lambda fn: _after_init(
            tracer, fn, lambda rom: tracer.mark_rom(rom.system)
        ),
    )

    # linalg: Pi, sparse LU, Kronecker-sum solves
    def pi_before(args):
        stats = args[0].stats
        return stats.get("pi_iterations", 0), stats.get("soft_accepts", 0)

    def pi_after(span, state, args, result):
        stats = args[0].stats
        tracer.count("pi.rounds", stats.get("pi_iterations", 0) - state[0])
        tracer.count("pi.soft_accepts",
                     stats.get("soft_accepts", 0) - state[1])
        rank = getattr(result, "rank", None)
        if rank is not None:
            n = args[0].n
            tracer.peak("pi.rank", int(rank))
            tracer.peak("pi.rank_frac", float(rank) / float(n))

    method(sylvester.LowRankKronSolver, "solve_pi", "linalg.pi",
           before=pi_before, after=pi_after)
    function(sylvester, "solve_pi_sylvester", "linalg.pi")

    def kron_registered(solver):
        tracer.register_stats("kron", solver.stats)

    _wrap_method(
        sylvester.LowRankKronSolver, "__init__",
        lambda fn: _after_init(tracer, fn, kron_registered),
    )

    def track_dim(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            if not tracer.paused:
                tracer.peak("kron.dim", int(self.dim))
            return result

        return wrapper

    _wrap_method(sylvester.LowRankKronSolver, "solve", track_dim)
    _wrap_method(
        resolvent.ResolventFactory, "__init__",
        lambda fn: _after_init(
            tracer, fn,
            lambda factory: tracer.register_stats(
                "lu", getattr(factory, "sparse_lu_stats", None)
            ),
        ),
    )

    # volterra + mor
    def basis_after(span, state, args, result):
        details = result[1]
        tracer.count("basis.raw", int(details.get("raw_vectors", 0)))
        tracer.count("basis.kept", int(details.get("deflated_to", 0)))

    method(AssociatedTransformMOR, "build_basis", "mor.build_basis",
           after=basis_after)
    _wrap_method(
        evaluator.VolterraEvaluator, "__init__",
        lambda fn: _after_init(
            tracer, fn, lambda ev: tracer.register_stats("evaluator", ev.stats)
        ),
    )

    # analysis + simulation: classified as ROM or full-model work
    def classify(args):
        return tracer.is_rom(args[0])

    def tag_rom(span, is_rom, args, result):
        span["rom"] = bool(is_rom)

    def simulate_after(span, is_rom, args, result):
        span["rom"] = bool(is_rom)
        tracer.count("simulation.newton_iters",
                     int(getattr(result, "newton_iterations", 0) or 0))
        tracer.count(
            "simulation.jacobian_lus",
            int(getattr(result, "jacobian_factorizations", 0) or 0),
        )

    function(distortion, "distortion_sweep", "analysis.sweep",
             before=classify, after=tag_rom)
    function(transient, "simulate", "simulation.simulate",
             before=classify, after=simulate_after)

    # store
    def write_after(span, state, args, result):
        store, key = args[0], args[1]
        tracer.observe("store.artifact_bytes", int(store.entry_bytes(key)))

    def read_after(span, state, args, result):
        span["hit"] = result is not None

    method(modelstore.ModelStore, "store", "store.write", after=write_after)
    method(modelstore.ModelStore, "load", "store.read", after=read_after)

    # front doors
    function(pipeline, "run_pipeline", "front.run_pipeline")
    function(pipeline, "run_parametric", "front.run_parametric")
    method(ReproService, "handle", "serve.handle")


# ---------------------------------------------------------------------------
# aggregation (pure: runs in the harness on worker snapshots)
# ---------------------------------------------------------------------------


def self_times(spans):
    """``{span id: self time}``: duration minus child-covered time."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0)
                + span["end"] - span["start"]
            )
    return {
        span["id"]: (span["end"] - span["start"]
                     - child_time.get(span["id"], 0.0))
        for span in spans
    }


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(snapshot):
    """Per-layer metrics of the library layers from a snapshot."""
    spans = snapshot["spans"]
    own = self_times(spans)
    counters = snapshot["counters"]
    maxima = snapshot["maxima"]
    values = snapshot["values"]

    def total(name, rom=None):
        return float(sum(
            own[s["id"]] for s in spans
            if s["name"] == name and (rom is None or s.get("rom") == rom)
        ))

    def per_call(name, **tags):
        return [
            own[s["id"]] for s in spans
            if s["name"] == name
            and all(s.get(k) == v for k, v in tags.items())
        ]

    c = counters.get
    lu = c("lu.real", 0) + c("lu.complex", 0)
    symbolic = c("lu.symbolic_reuses", 0) + c("lu.symbolic_analyses", 0)
    h1 = c("evaluator.h1_solves", 0) + c("evaluator.h1_hits", 0)
    return {
        "circuits.compile_s": total("circuits.compile"),
        "systems.lift_s": total("systems.lift"),
        "systems.explicit_s": total("systems.explicit"),
        "systems.project_s": total("systems.project"),
        "linalg.pi_s": total("linalg.pi"),
        "linalg.pi_rounds": c("pi.rounds", 0),
        "linalg.pi_rank": maxima.get("pi.rank", 0),
        "linalg.pi_rank_frac": maxima.get("pi.rank_frac", 0.0),
        "linalg.pi_soft_accepts": c("pi.soft_accepts", 0),
        "linalg.lu_count": lu,
        "linalg.lu_symbolic_reuse_frac": _ratio(
            c("lu.symbolic_reuses", 0), symbolic
        ),
        "linalg.kron_solves": c("kron.solves", 0),
        "linalg.krylov_dim": maxima.get("kron.dim", 0),
        "mor.chains_s": total("mor.build_basis"),
        "mor.basis_raw": c("basis.raw", 0),
        "mor.basis_kept_frac": _ratio(c("basis.kept", 0), c("basis.raw", 0)),
        "analysis.sweep_rom_ms": 1e3 * _median(
            per_call("analysis.sweep", rom=True)
        ),
        "analysis.sweep_full_s": total("analysis.sweep", rom=False),
        "volterra.h1_solves": c("evaluator.h1_solves", 0),
        "volterra.h2_solves": c("evaluator.h2_solves", 0),
        "volterra.h3_evals": c("evaluator.h3_evals", 0),
        "volterra.h1_hit_frac": _ratio(c("evaluator.h1_hits", 0), h1),
        "simulation.full_s": total("simulation.simulate", rom=False),
        "simulation.rom_s": total("simulation.simulate", rom=True),
        "simulation.newton_iters": c("simulation.newton_iters", 0),
        "simulation.jacobian_lus": c("simulation.jacobian_lus", 0),
        "store.write_ms": 1e3 * _median(per_call("store.write")),
        "store.read_ms": 1e3 * _median(per_call("store.read", hit=True)),
        "store.artifact_bytes": _median(values.get("store.artifact_bytes")),
    }
