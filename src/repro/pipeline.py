"""One-call pipeline: netlist/system → MNA → MOR → Volterra queries.

Before this module, every consumer of the library (examples, benches,
ad-hoc scripts) hand-wired the same five layers: compile the netlist,
lift exponential systems, build the reducer, run the reduction, then
drive ``distortion_sweep`` / ``simulate`` on full model and ROM.  The
pipeline makes that orchestration declarative —

>>> from repro.pipeline import run_pipeline
>>> result = run_pipeline(netlist, reduce=(6, 3, 0),
...                       sweep={"start": 0.02, "stop": 0.5, "points": 25})
>>> result.report()["sweep"]["hd2"]

— and routes it through the persistence layer: pass ``store=`` (a
:class:`~repro.store.ModelStore` or a directory path) and repeated runs
on an already-seen (system, reducer) pair serve the reduction from disk
instead of recomputing it.  This is the layer the CLI
(``python -m repro``) and any future multi-process serving front-end
call into.

Job objects (:class:`ReductionJob`, :class:`SweepJob`,
:class:`TransientJob`, :class:`ParametricReductionJob`) are plain
declarative configs: each coerces from a dict of its constructor's
parameters (the JSON spec format), validates eagerly, and — for sources
— maps spec tags onto :mod:`repro.simulation.sources` factories.
"""

import inspect
import time

import numpy as np

from ._validation import check_positive_int
from .analysis.distortion import distortion_sweep
from .analysis.metrics import max_relative_error
from .checkpoint import JobState, checkpoint_for
from .circuits.netlist import Netlist
from .errors import TaskCancelled, ValidationError
from .linalg.arnoldi import merge_bases
from .mor.assoc import AssociatedTransformMOR
from .mor.base import ReducedOrderModel
from .serialize import json_safe
from .simulation import sources as _sources
from .simulation.transient import simulate
from .store import ModelStore, fingerprint_system
from .store.modelstore import reduce_artifact
from .systems.exponential import ExponentialODE
from .systems.polynomial import PolynomialODE
from .volterra.associated import AssociatedWorkspace

__all__ = [
    "ReductionJob",
    "SweepJob",
    "TransientJob",
    "ParametricReductionJob",
    "ParametricResult",
    "PipelineResult",
    "run_pipeline",
    "run_parametric",
    "system_from_spec",
]

#: Spec tags accepted in ``TransientJob.source`` dicts.
_SOURCE_FACTORIES = {
    "zero": _sources.zero_source,
    "step": _sources.step_source,
    "pulse": _sources.pulse_source,
    "sine": _sources.sine_source,
    "cosine": _sources.cosine_source,
    "multitone": _sources.multitone_source,
    "exponential_pulse": _sources.exponential_pulse_source,
    "surge": _sources.surge_source,
}

#: Named circuit generators a spec may reference instead of a device
#: list (each returns a Netlist or a compiled system).
_GENERATORS = {}


def _load_generators():
    if not _GENERATORS:
        from .circuits import examples as _examples

        for name in _examples.__all__:
            _GENERATORS[name] = getattr(_examples, name)
    return _GENERATORS


class _Job:
    """What the declarative job classes share: one :meth:`coerce`.

    A job's fields are its constructor's parameters, read from the
    signature once per class, so no field list can drift from
    ``__init__``.  ``_section`` names the argument (and spec section)
    the job comes from; ``_sequence``, when set, is ``(parameter,
    label)``: a bare sequence binds to that one parameter.
    """

    _section = None
    _sequence = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = frozenset(inspect.signature(cls).parameters)

    @classmethod
    def coerce(cls, value):
        """Accept a job, ``None``, a dict of its fields, or (where the
        job names one) a bare sequence."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            unknown = set(value) - cls._fields
            if unknown:
                raise ValidationError(
                    f"unknown {cls.__name__} fields: {sorted(unknown)}"
                )
            return cls(**value)
        shapes = f"a {cls.__name__} or a dict"
        if cls._sequence is not None:
            parameter, label = cls._sequence
            if isinstance(value, (list, tuple, np.ndarray)):
                return cls(**{parameter: value})
            shapes = f"a {cls.__name__}, a dict or {label}"
        raise ValidationError(
            f"{cls._section} must be {shapes}; got {type(value).__name__}"
        )


class ReductionJob(_Job):
    """Declarative reducer configuration (associated-transform NMOR).

    Parameters mirror :class:`~repro.mor.AssociatedTransformMOR`; the
    job exists so pipelines and JSON specs can describe a reduction
    without constructing the reducer eagerly.
    """

    _section = "reduce"
    _sequence = ("orders", "an orders tuple")

    def __init__(self, orders=(6, 3, 0), expansion_points=(0.0,),
                 strategy="coupled", deduplicate=True, tol=1e-10):
        self.orders = tuple(int(q) for q in orders)
        self.expansion_points = tuple(
            complex(p) if isinstance(p, complex) else float(p)
            for p in expansion_points
        )
        self.strategy = str(strategy)
        self.deduplicate = bool(deduplicate)
        self.tol = float(tol)
        self.reducer()  # validate eagerly: a bad job fails at build time

    def reducer(self):
        """The configured :class:`~repro.mor.AssociatedTransformMOR`."""
        return AssociatedTransformMOR(
            orders=self.orders,
            expansion_points=self.expansion_points,
            strategy=self.strategy,
            deduplicate=self.deduplicate,
            tol=self.tol,
        )

    def to_dict(self):
        return {
            "orders": list(self.orders),
            "expansion_points": json_safe(self.expansion_points),
            "strategy": self.strategy,
            "deduplicate": self.deduplicate,
            "tol": self.tol,
        }


class SweepJob(_Job):
    """Declarative distortion sweep: an ω-grid plus a tone amplitude.

    ``compare_full`` additionally runs the sweep on the full model and
    records the worst relative HD2/HD3 deviation of the ROM — the
    frequency-domain accuracy check the paper's experiments use.
    """

    _section = "sweep"
    _sequence = ("omegas", "an omega array")

    def __init__(self, start=None, stop=None, points=25, omegas=None,
                 amplitude=1.0, compare_full=False):
        if omegas is not None:
            self._omegas = np.asarray(omegas, dtype=float).reshape(-1)
            if self._omegas.size == 0:
                raise ValidationError("sweep omegas must be non-empty")
        else:
            if start is None or stop is None:
                raise ValidationError(
                    "sweep needs either explicit omegas or start+stop"
                )
            points = check_positive_int(points, "points")
            self._omegas = np.linspace(float(start), float(stop), points)
        if np.any(self._omegas <= 0.0):
            raise ValidationError("sweep frequencies must be positive")
        self.amplitude = float(amplitude)
        self.compare_full = bool(compare_full)

    @property
    def omegas(self):
        return self._omegas

    def to_dict(self):
        return {
            "omegas": self._omegas.tolist(),
            "amplitude": self.amplitude,
            "compare_full": self.compare_full,
        }


class TransientJob(_Job):
    """Declarative transient: a source, a horizon and a step size.

    ``source`` is either a callable ``u(t)`` or a JSON-able spec
    ``{"kind": "sine", "amplitude": 0.08, "frequency": 0.08}`` with the
    kinds of :mod:`repro.simulation.sources`.  ``compare_full`` also
    integrates the full model and records the peak-normalized relative
    error of the ROM trace.
    """

    _section = "transient"

    def __init__(self, source, t_end, dt, compare_full=False):
        self._source_spec = None
        if callable(source):
            self._source = source
        elif isinstance(source, dict):
            spec = dict(source)
            kind = spec.pop("kind", None)
            factory = _SOURCE_FACTORIES.get(kind)
            if factory is None:
                raise ValidationError(
                    f"unknown source kind {kind!r}; expected one of "
                    f"{sorted(_SOURCE_FACTORIES)}"
                )
            try:
                self._source = factory(**spec)
            except TypeError as exc:
                raise ValidationError(
                    f"bad parameters for source kind {kind!r} ({exc})"
                ) from exc
            self._source_spec = {"kind": kind, **spec}
        else:
            raise ValidationError(
                "source must be callable or a source-spec dict, got "
                f"{type(source).__name__}"
            )
        self.t_end = float(t_end)
        self.dt = float(dt)
        if self.t_end <= 0 or self.dt <= 0:
            raise ValidationError("t_end and dt must be positive")
        self.compare_full = bool(compare_full)

    @property
    def source(self):
        return self._source

    def to_dict(self):
        return {
            "source": self._source_spec or "<callable>",
            "t_end": self.t_end,
            "dt": self.dt,
            "compare_full": self.compare_full,
        }


def system_from_spec(spec, sparse=None):
    """Build a system from a JSON spec (netlist, generator, or both).

    Accepted shapes:

    * ``{"devices": [...], ...}`` — a :meth:`Netlist.to_dict` spec,
    * ``{"netlist": {...}}`` — the same, nested,
    * ``{"generator": "quadratic_rc_ladder_netlist", "args": {...}}`` —
      a named :mod:`repro.circuits.examples` generator.

    Optional top-level keys: ``"compile": {"sparse": true/false}``
    (forwarded to MNA assembly; the *sparse* parameter overrides it) and
    ``"lift": false`` to suppress the default quadratic-linearization
    of exponential-diode systems.

    Returns ``(system, info)`` — *info* records name/class/size and
    whether the system was lifted, for reports.
    """
    built, sparse = _spec_target(spec, sparse)
    return _build_system(built, sparse, lift=spec.get("lift", True))


def _spec_target(spec, sparse):
    """Resolve a spec to what it describes, plus the sparse flag.

    Returns ``(built, sparse)``: *built* is the :class:`Netlist` of a
    device-list spec (top-level or nested under ``"netlist"``) or
    whatever a named generator returns (a Netlist or a compiled
    system); *sparse* falls back to the spec's ``"compile"`` section
    when the caller did not force it.
    """
    if not isinstance(spec, dict):
        raise ValidationError(
            f"spec must be a dict, got {type(spec).__name__}"
        )
    compile_opts = spec.get("compile", {})
    if not isinstance(compile_opts, dict):
        raise ValidationError("spec 'compile' must be a dict")
    if sparse is None:
        sparse = compile_opts.get("sparse")
    if "generator" not in spec:
        return Netlist.from_dict(spec.get("netlist", spec)), sparse
    name = spec["generator"]
    generator = _load_generators().get(name)
    if generator is None:
        raise ValidationError(
            f"unknown generator {name!r}; expected one of "
            f"{sorted(_load_generators())}"
        )
    return generator(**spec.get("args", {})), sparse


def _build_system(target, sparse=None, lift=True):
    """Compile *target* when it is a :class:`Netlist`, then lift it.

    MOR and the Volterra kernels speak polynomial systems, so an
    exponential-diode system is quadratic-linearized (exactly) unless
    *lift* is false.  Anything else passes through as already built.
    Returns ``(system, info)`` with the :func:`_system_info` summary.
    """
    system = (
        target.compile(sparse=sparse) if isinstance(target, Netlist)
        else target
    )
    lifted = lift and isinstance(system, ExponentialODE)
    if lifted:
        system = system.quadratic_linearize()
    return system, _system_info(system, lifted)


def _require_polynomial(system):
    """Refuse a system the reducer and Volterra kernels cannot take.

    Fails with a clear error instead of an AttributeError deep in the
    query layers; every front door that runs jobs calls it.
    """
    if not isinstance(system, PolynomialODE):
        raise ValidationError(
            f"pipeline jobs need a polynomial system "
            f"(QLDAE/CubicODE/PolynomialODE, or an ExponentialODE to "
            f"lift); got {type(system).__name__}.  For LTI StateSpace "
            "models use repro.mor.reduce_lti or balanced_truncation "
            "directly."
        )


def _system_info(system, lifted):
    """The structure summary every pipeline report leads with."""
    return {
        "name": getattr(system, "name", ""),
        "system_class": type(system).__name__,
        "n_states": int(system.n_states),
        "n_inputs": int(system.n_inputs),
        "n_outputs": int(system.n_outputs),
        "sparse": bool(getattr(system, "is_sparse", False)),
        "lifted": bool(lifted),
    }


class PipelineResult:
    """Everything one :func:`run_pipeline` call produced.

    Attributes
    ----------
    system : the compiled (and possibly lifted) full system
    system_info : dict
    artifact : ReductionArtifact or None
    rom : ReducedOrderModel or None
    store_hit : bool or None
        True/False when a store served/recorded the reduction, None
        when no store was involved.
    reduce_time : float or None
        Wall-clock seconds of the reduce step (disk hit or compute).
    sweep : dict or None
        ``omegas``/``hd2``/``hd3`` arrays (ROM when reduced, else full
        model) plus full-model comparison columns when requested.
    transient : dict or None
        Output trace summary and wall times.
    """

    def __init__(self, system, system_info, artifact=None, rom=None,
                 store_hit=None, reduce_time=None, sweep=None,
                 transient=None, jobs=None, checkpoint_info=None):
        self.system = system
        self.system_info = dict(system_info)
        self.artifact = artifact
        self.rom = rom
        self.store_hit = store_hit
        self.reduce_time = reduce_time
        self.sweep = sweep
        self.transient = transient
        self.jobs = dict(jobs or {})
        self.checkpoint_info = checkpoint_info

    def report(self):
        """JSON-safe report of the whole pipeline run.

        Assembled first, then passed through
        :func:`~repro.serialize.json_safe` in one walk, so callers that
        encode it (the CLI, the serving daemon) need not walk it again.
        """
        report = {"system": self.system_info}
        if self.jobs:
            report["jobs"] = {
                key: job.to_dict() for key, job in self.jobs.items()
            }
        if self.rom is not None:
            report["reduction"] = {
                "method": self.rom.method,
                "orders": self.rom.orders,
                "expansion_points": self.rom.expansion_points,
                "rom_order": int(self.rom.order),
                "full_order": int(self.rom.full_order),
                "build_time_s": self.rom.build_time,
                "store_hit": self.store_hit,
                "reduce_time_s": self.reduce_time,
            }
            pi_plan = self.rom.details.get("pi_plan")
            if pi_plan is not None:
                report["reduction"]["pi_plan"] = pi_plan
            if self.artifact is not None:
                report["reduction"]["provenance"] = self.artifact.provenance
            if self.checkpoint_info is not None:
                report["reduction"]["checkpoint"] = self.checkpoint_info
        if self.sweep is not None:
            report["sweep"] = self.sweep
        if self.transient is not None:
            report["transient"] = self.transient
        return json_safe(report)

    def __repr__(self):
        parts = [f"n={self.system_info.get('n_states')}"]
        if self.rom is not None:
            parts.append(f"rom_order={self.rom.order}")
        if self.store_hit is not None:
            parts.append(f"store_hit={self.store_hit}")
        if self.sweep is not None:
            parts.append(f"sweep_points={len(self.sweep['omegas'])}")
        if self.transient is not None:
            parts.append("transient")
        return f"PipelineResult({', '.join(parts)})"


def _worst_rel_dev(candidate, reference):
    """Worst relative deviation over the nonzero reference entries.

    A structurally-zero distortion figure (linear circuit, q2 = 0 ROM)
    must not turn the accuracy summary into NaN/inf; grid points where
    the reference is exactly zero are judged absolutely instead: any
    nonzero candidate there reports ``inf``, agreement reports as 0.
    Returns ``None`` when the reference is zero everywhere and the
    candidate matches it.
    """
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    nonzero = reference != 0.0
    worst = (
        float(np.max(np.abs(candidate[nonzero] / reference[nonzero] - 1.0)))
        if np.any(nonzero)
        else None
    )
    if np.any(candidate[~nonzero] != 0.0):
        return float("inf")
    return worst


def _trace_summary(result):
    trace = result.output(0)
    return {
        "steps": int(result.steps),
        "wall_time_s": float(result.wall_time),
        "newton_iterations": int(result.newton_iterations),
        "output_min": float(trace.min()),
        "output_max": float(trace.max()),
        "output_rms": float(np.sqrt(np.mean(trace**2))),
    }


def _reduce_step(system, reduce_job, store=None, checkpoint=None,
                 resume=False, system_fingerprint=None):
    """Run one :class:`ReductionJob` on an already-built *system*.

    The shared reduce path of :func:`run_pipeline` and the serving
    layer (:mod:`repro.serve`): resolves the checkpoint, routes through
    the :class:`~repro.store.ModelStore` when one is given (computing
    on a miss), and returns
    ``(artifact, store_hit, reduce_time, checkpoint_info)`` with the
    same semantics the pipeline report exposes.  *system_fingerprint*
    is the precomputed :func:`~repro.store.fingerprint_system` value —
    long-lived processes that fingerprint each loaded spec once pass it
    so the store does not re-hash every system matrix per request.
    """
    reducer = reduce_job.reducer()
    if store is not None and not isinstance(store, ModelStore):
        store = ModelStore(store)
    job_state = _resolve_checkpoint(
        checkpoint, resume, store, system, reducer
    )
    store_hit = None
    start = time.perf_counter()
    if store is not None:
        artifact, store_hit = store.reduce(
            system, reducer, checkpoint=job_state,
            system_fingerprint=system_fingerprint,
        )
    else:
        artifact = reduce_artifact(
            system, reducer, system_fingerprint, checkpoint=job_state
        )
    reduce_time = time.perf_counter() - start
    checkpoint_info = None
    if job_state is not None:
        # The build (or store hit) succeeded: the checkpoint has
        # served its purpose.  Record its stats, then drop it so a
        # later run of a *different* job can't trip over stale state.
        checkpoint_info = job_state.describe()
        job_state.discard()
    return artifact, store_hit, reduce_time, checkpoint_info


def _sweep_result(system, rom, sweep_job, explicit_query=None,
                  cancel=None):
    """Run one :class:`SweepJob`; returns the report's ``sweep`` dict.

    *rom* is ``None`` when the sweep runs on the full model.
    *explicit_query* is a pre-built ``to_explicit()`` of the query
    system: ``to_explicit`` returns a fresh object per call, which
    would discard the memoized Volterra evaluator, so a long-lived
    process passes its retained explicit system and repeat sweeps skip
    the H1/H2 solves.  *cancel* is the cooperative-cancellation poll of
    every sweep here.
    """
    omegas = sweep_job.omegas
    if explicit_query is None:
        query_system = rom.system if rom is not None else system
        explicit_query = query_system.to_explicit()
    _, hd2, hd3 = distortion_sweep(
        explicit_query, omegas,
        amplitude=sweep_job.amplitude, cancel=cancel,
    )
    sweep_result = {
        "omegas": omegas,
        "hd2": hd2,
        "hd3": hd3,
        "amplitude": sweep_job.amplitude,
        "on": "rom" if rom is not None else "full",
    }
    if sweep_job.compare_full and rom is not None:
        _, hd2_full, hd3_full = distortion_sweep(
            system.to_explicit(), omegas,
            amplitude=sweep_job.amplitude, cancel=cancel,
        )
        sweep_result["hd2_full"] = hd2_full
        sweep_result["hd3_full"] = hd3_full
        sweep_result["hd2_worst_rel_dev"] = _worst_rel_dev(
            hd2, hd2_full
        )
        sweep_result["hd3_worst_rel_dev"] = _worst_rel_dev(
            hd3, hd3_full
        )
    return sweep_result


def _transient_result(system, rom, transient_job, cancel=None):
    """Run one :class:`TransientJob`; returns the ``transient`` dict.

    *rom* is ``None`` when the simulation runs on the full model.  The
    integrator does not poll *cancel*, so it is checked once, before
    the run starts.
    """
    if cancel is not None and cancel():
        raise TaskCancelled(
            "request cancelled before its transient started"
        )
    query_system = rom.system if rom is not None else system
    result = simulate(
        query_system, transient_job.source,
        t_end=transient_job.t_end, dt=transient_job.dt,
    )
    transient_result = {
        "on": "rom" if rom is not None else "full",
        **_trace_summary(result),
    }
    transient_result["times"] = result.times
    transient_result["output"] = result.output(0)
    if transient_job.compare_full and rom is not None:
        full = simulate(
            system, transient_job.source,
            t_end=transient_job.t_end, dt=transient_job.dt,
        )
        transient_result["full"] = _trace_summary(full)
        transient_result["full_output"] = full.output(0)
        transient_result["max_rel_error"] = float(
            max_relative_error(full.output(0), result.output(0))
        )
    return transient_result


def _job_result(system, info, reduce_job=None, sweep_job=None,
                transient_job=None, reduction=None, explicit_query=None,
                cancel=None):
    """Answer the query jobs and assemble the :class:`PipelineResult`.

    The one result path of :func:`run_pipeline` and the serving layer,
    so a served answer cannot drift from the library's.  *reduction* is
    :func:`_reduce_step`'s ``(artifact, store_hit, reduce_time,
    checkpoint_info)`` (``None`` when no reduce job ran, and the jobs
    query the full model); *explicit_query* and *cancel* go to
    :func:`_sweep_result`, *cancel* also to :func:`_transient_result`.
    """
    artifact, store_hit, reduce_time, checkpoint_info = (
        reduction if reduction is not None else (None,) * 4
    )
    rom = artifact.rom if artifact is not None else None
    sweep_result = transient_result = None
    if sweep_job is not None:
        sweep_result = _sweep_result(
            system, rom, sweep_job, explicit_query=explicit_query,
            cancel=cancel,
        )
    if transient_job is not None:
        transient_result = _transient_result(
            system, rom, transient_job, cancel=cancel
        )
    jobs = {
        name: job for name, job in (
            ("reduce", reduce_job), ("sweep", sweep_job),
            ("transient", transient_job),
        ) if job is not None
    }
    return PipelineResult(
        system, info, artifact=artifact, rom=rom, store_hit=store_hit,
        reduce_time=reduce_time, sweep=sweep_result,
        transient=transient_result, jobs=jobs,
        checkpoint_info=checkpoint_info,
    )


def run_pipeline(target, reduce=None, sweep=None, transient=None,
                 store=None, sparse=None, checkpoint=None, resume=False):
    """Run the declarative MNA → MOR → query pipeline on *target*.

    Parameters
    ----------
    target : Netlist, spec dict, or system object
        A :class:`~repro.circuits.Netlist` (compiled here), a JSON spec
        (see :func:`system_from_spec`), or an already-built system.
        Exponential-diode systems are quadratic-linearized
        automatically.
    reduce : ReductionJob, dict, or (q1, q2, q3) tuple, optional
        The reduction to run.  Omit to query the full model directly.
    sweep : SweepJob, dict, or omega array, optional
        Distortion sweep over the ROM (or the full model when *reduce*
        is omitted); ``compare_full=True`` adds the full-model
        reference and deviation columns.
    transient : TransientJob or dict, optional
        Transient simulation of the ROM (or full model), optionally
        against the full model.
    store : ModelStore or path, optional
        Serve/record the reduction through a content-addressed store:
        an already-seen (system, reducer) pair loads from disk instead
        of recomputing.
    sparse : bool, optional
        Force CSR/dense MNA assembly for netlist/spec targets.
    checkpoint : bool, path, or JobState, optional
        Checkpoint the reduction at stage boundaries so a killed build
        resumes bit-identically.  ``True`` keys the checkpoint under
        the store (requires *store*) exactly like the artifact the
        build will produce; a path uses that directory; a
        :class:`~repro.checkpoint.JobState` is used as-is.  The
        checkpoint is discarded after a successful reduce.
    resume : bool, optional
        Assert that committed checkpoint state exists to resume from;
        raises :class:`ValidationError` when the checkpoint is empty
        (a guard against typo'd checkpoint paths silently recomputing).

    Returns a :class:`PipelineResult`; call ``.report()`` for the
    JSON-able summary the CLI prints.
    """
    reduce_job = ReductionJob.coerce(reduce)
    sweep_job = SweepJob.coerce(sweep)
    transient_job = TransientJob.coerce(transient)
    if isinstance(target, dict):
        system, info = system_from_spec(target, sparse=sparse)
    else:
        system, info = _build_system(target, sparse)
    if any(job is not None
           for job in (reduce_job, sweep_job, transient_job)):
        _require_polynomial(system)

    reduction = None
    if reduce_job is not None:
        reduction = _reduce_step(
            system, reduce_job, store=store, checkpoint=checkpoint,
            resume=resume,
        )
    elif checkpoint or resume:
        raise ValidationError(
            "checkpoint/resume only apply to the reduce step; pass "
            "reduce=... as well"
        )
    return _job_result(
        system, info, reduce_job, sweep_job, transient_job, reduction
    )


def _resolve_checkpoint(checkpoint, resume, store, system, reducer):
    """Coerce the *checkpoint* argument to a JobState (or ``None``)."""
    if checkpoint is None or checkpoint is False:
        if resume:
            raise ValidationError(
                "resume=True needs a checkpoint: pass checkpoint=True "
                "(with a store) or a checkpoint directory"
            )
        return None
    if isinstance(checkpoint, JobState):
        state = checkpoint
    elif checkpoint is True:
        if store is None:
            raise ValidationError(
                "checkpoint=True keys the checkpoint under the model "
                "store; pass store=... or an explicit checkpoint "
                "directory instead"
            )
        state = checkpoint_for(store, system, reducer)
    else:
        state = checkpoint_for(checkpoint, system, reducer)
    if resume and not state.resumed:
        raise ValidationError(
            f"resume requested but {state.directory} holds no committed "
            "checkpoint stages"
        )
    return state


# ---------------------------------------------------------------------------
# parametric multi-corner reduction
# ---------------------------------------------------------------------------

#: Probe-check acceptance margin: an interpolated ROM is accepted when
#: its probe-frequency distortion deviation from the full corner model
#: stays below ``margin * interp_tol``, leaving headroom for deviation
#: between probes and for the anchors' own truncation error.
_INTERP_MARGIN = 0.5

#: Probe frequencies (an evenly spread subset of the sweep grid) the
#: interpolation check evaluates.
_PROBE_POINTS = 3

#: Completed warm states kept for nearest-corner seeding (bounds the
#: O(n · basis) memory the warm tier retains).
_WARM_POOL = 4


class ParametricReductionJob(_Job):
    """Declarative multi-corner configuration for :func:`run_parametric`.

    Parameters
    ----------
    grid_points : int or {name: int}
        Points per ranged-parameter axis of the corner grid.
    draws : int
        Monte-Carlo draw count on top of the grid.
    seed : int
        Seed of the Monte-Carlo generator; recorded in every report so
        a distribution reproduces bit-for-bit.
    warm : bool
        Enable the warm-start tier: seed each reduction's extended-
        Krylov bases (and the Π build) with the nearest completed
        corner's basis and let the exact-residual test converge.
    interp : bool
        Enable the interpolation tier: project a corner's own system
        onto the merged bases of its two bracketing neighbors, accept
        only when the probe-frequency distortion deviation from the
        full corner model stays within ``interp_tol`` (times the
        acceptance margin), and fall back to a real reduction
        otherwise.
    interp_tol : float
        Distortion-deviation tolerance of the interpolation tier.
    """

    _section = "mc"

    def __init__(self, grid_points=3, draws=0, seed=2012, warm=True,
                 interp=True, interp_tol=1e-4):
        if isinstance(grid_points, dict):
            self.grid_points = {
                str(k): check_positive_int(v, f"grid_points[{k!r}]")
                for k, v in grid_points.items()
            }
        else:
            self.grid_points = check_positive_int(grid_points, "grid_points")
        self.draws = int(draws)
        if self.draws < 0:
            raise ValidationError("draws must be >= 0")
        self.seed = int(seed)
        self.warm = bool(warm)
        self.interp = bool(interp)
        self.interp_tol = float(interp_tol)
        if self.interp_tol <= 0:
            raise ValidationError("interp_tol must be positive")

    def to_dict(self):
        return {
            "grid_points": json_safe(self.grid_points),
            "draws": self.draws,
            "seed": self.seed,
            "warm": self.warm,
            "interp": self.interp,
            "interp_tol": self.interp_tol,
        }


def _probe_omegas(omegas, probe_points):
    """An evenly spread ``probe_points``-subset of the sweep grid."""
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    if probe_points >= omegas.size:
        return omegas
    picks = np.unique(
        np.linspace(0, omegas.size - 1, probe_points).round().astype(int)
    )
    return omegas[picks]


class _WarmPool:
    """The most recent completed warm states, for nearest-corner seeding.

    Bounded (``cap`` entries, FIFO) because a warm state holds O(n ·
    basis) floats; distances are normalized per axis by the grid span
    so heterogeneous parameter scales compare fairly.
    """

    def __init__(self, spans, cap):
        self._spans = dict(spans)  # name -> axis span (0 span -> 1.0)
        self._cap = int(cap)
        self._entries = []  # (values, warm_state) newest last

    def add(self, values, state):
        if not state:
            return
        self._entries.append((dict(values), state))
        if len(self._entries) > self._cap:
            del self._entries[0]

    def nearest(self, values):
        best, best_dist = None, np.inf
        for stored, state in self._entries:
            dist = 0.0
            for name, span in self._spans.items():
                delta = values.get(name, 0.0) - stored.get(name, 0.0)
                dist += (delta / span) ** 2
            if dist < best_dist:
                best, best_dist = state, dist
        return best


class ParametricResult:
    """Everything one :func:`run_parametric` call produced.

    Attributes
    ----------
    system_info : dict
        Structure summary of the base (nominal) corner's system.
    grid_info, mc_info : dict
        :meth:`~repro.params.ParameterGrid.describe` /
        :meth:`~repro.params.MonteCarloSampler.describe` summaries.
    tiers : dict
        Per-tier reuse counters: ``dedup`` / ``warm`` / ``interp`` /
        ``cold`` plus ``interp_rejected`` (candidates whose probe check
        failed and fell back to a real reduction).
    corners, draws : list of dict
        Per-point records: parameter values, the tier that served the
        reduction, timings, ROM order, and the HD2/HD3 sweep arrays.
    distributions : dict
        Per-frequency p50/p99 of HD2/HD3 across grid corners (and
        across Monte-Carlo draws when the job has any), plus scalar
        percentiles of each corner's worst-case figures.
    roms : {flat_index: ReducedOrderModel}
        Grid-corner ROMs, kept so callers (and the serving layer) can
        query individual corners without re-reducing.
    """

    def __init__(self, system_info, grid_info, mc_info, tiers, corners,
                 draws, distributions, jobs, timings, roms=None,
                 store_stats=None):
        self.system_info = dict(system_info)
        self.grid_info = dict(grid_info)
        self.mc_info = dict(mc_info)
        self.tiers = dict(tiers)
        self.corners = list(corners)
        self.draws = list(draws)
        self.distributions = dict(distributions)
        self.jobs = dict(jobs)
        self.timings = dict(timings)
        self.roms = dict(roms or {})
        self.store_stats = store_stats

    def report(self):
        """JSON-safe report (the CLI's and the ``/mc`` endpoint's body),
        made safe in one :func:`~repro.serialize.json_safe` walk."""
        report = {
            "system": self.system_info,
            "grid": self.grid_info,
            "mc": self.mc_info,
            "tiers": self.tiers,
            "corners": self.corners,
            "distributions": self.distributions,
            "jobs": {k: job.to_dict() for k, job in self.jobs.items()},
            "timings": self.timings,
        }
        if self.draws:
            report["draws"] = self.draws
        if self.store_stats is not None:
            report["store"] = self.store_stats
        return json_safe(report)

    def __repr__(self):
        tiers = ", ".join(f"{k}={v}" for k, v in sorted(self.tiers.items()))
        return (
            f"ParametricResult(corners={len(self.corners)}, "
            f"draws={len(self.draws)}, {tiers})"
        )


def _parametric_netlist(target, sparse):
    """Coerce :func:`run_parametric`'s *target* to an annotated netlist.

    Accepts an annotated :class:`Netlist` or a JSON spec — a netlist
    spec whose (possibly nested) dict carries ``"parameters"``, or a
    generator spec with a top-level ``"parameters"`` list annotating
    the generated netlist.
    """
    if isinstance(target, dict):
        built, sparse = _spec_target(target, sparse)
        if not isinstance(built, Netlist):
            raise ValidationError(
                f"generator {target['generator']!r} builds a compiled "
                "system; parametric runs need a Netlist-producing "
                "generator"
            )
        if target.get("parameters") and not built.parameters:
            built.with_params(target["parameters"])
        target = built
    if not isinstance(target, Netlist):
        raise ValidationError(
            "run_parametric needs a Netlist or a netlist spec, got "
            f"{type(target).__name__}"
        )
    if not getattr(target, "parameters", ()):
        raise ValidationError(
            "netlist has no parameters; annotate it with "
            "Netlist.with_params (or a spec-level 'parameters' list)"
        )
    return target, sparse


def run_parametric(target, reduce=None, sweep=None, mc=None, store=None,
                   sparse=None):
    """Reduce a ROM *family* over corners and Monte-Carlo draws.

    The parametric counterpart of :func:`run_pipeline`: *target* is a
    parameter-annotated netlist (or spec), and the job materializes the
    corner grid plus ``draws`` Monte-Carlo samples, reduces every
    member, sweeps each ROM's distortion figures, and reports their
    distributions (p50/p99 across the family).

    Every corner of a well-formed parametric netlist shares one
    structural fingerprint (parameters drive device *values* only), so
    the reductions share work through four tiers, cheapest first:

    1. **dedup** — the corner's exact store key (value fingerprint ×
       reducer config) was already reduced, in this run or in the
       given :class:`~repro.store.ModelStore`; serve it outright.
    2. **interp** — project the corner's own system onto the merged
       bases of its two bracketing neighbors and accept the candidate
       only when its probe-frequency distortion deviation from the
       corner's *full* model stays within the configured tolerance
       (times the acceptance margin); interpolated ROMs are never
       written to the store — they are not the canonical reduction for
       their key.
    3. **warm** — run a real reduction, but seed the extended-Krylov
       solver and the Π build with the nearest completed corner's
       basis (:meth:`~repro.volterra.associated.AssociatedWorkspace.
       warm_start`); the exact-residual stopping tests make the result
       meet the same tolerance as a cold build.  The shared symbolic
       sparse-LU analysis (same CSR pattern across corners) accelerates
       this tier implicitly — see ``sparse_lu_stats``.
    4. **cold** — a from-scratch reduction (the first corner, corners
       whose assembled structure diverges from the family's, and
       probe-check rejections, which are counted under
       ``interp_rejected`` plus the tier that actually ran).

    Each family member's ROM then gets its own distortion sweep.

    Parameters mirror :func:`run_pipeline` where shared; *mc* is a
    :class:`ParametricReductionJob` (or its dict form).  Returns a
    :class:`ParametricResult`.
    """
    from .circuits.mna import structural_digest
    from .params import MonteCarloSampler, ParameterGrid, materialize

    netlist, sparse = _parametric_netlist(target, sparse)
    reduce_job = ReductionJob.coerce(reduce) or ReductionJob()
    sweep_job = SweepJob.coerce(sweep)
    if sweep_job is None:
        raise ValidationError(
            "run_parametric needs a sweep: the distortion distributions "
            "across the family are its output"
        )
    mc_job = ParametricReductionJob.coerce(mc) or ParametricReductionJob()
    if store is not None and not isinstance(store, ModelStore):
        store = ModelStore(store)

    reducer = reduce_job.reducer()
    grid = ParameterGrid(netlist, mc_job.grid_points)
    sampler = MonteCarloSampler(netlist, mc_job.draws, mc_job.seed)
    spans = {
        param.name: float(axis[-1] - axis[0]) or 1.0
        for param, axis in grid.axes
    }
    warm_pool = _WarmPool(spans, _WARM_POOL)
    probe = _probe_omegas(sweep_job.omegas, _PROBE_POINTS)

    tiers = {
        "dedup": 0, "warm": 0, "interp": 0, "cold": 0,
        "interp_rejected": 0,
    }
    seen = {}          # value fingerprint -> completed record
    records = {}       # flat grid index -> record
    system_info = None
    base_digest = None
    t_start = time.perf_counter()

    def _try_interp(system, digest, pair):
        """Tier-2 candidate: merged-neighbor projection + probe check.

        Returns ``(rom, dev)`` on acceptance, ``(None, dev)`` on
        rejection (structure mismatch, missing anchors, or probe
        deviation past the margin).
        """
        left, right = records.get(pair[0]), records.get(pair[1])
        if left is None or right is None or not (
            left["digest"] == right["digest"] == digest
        ):
            return None, None
        basis = merge_bases([left["rom"].basis, right["rom"].basis])
        candidate = system.project(basis)
        _, hd2c, hd3c = distortion_sweep(
            candidate.to_explicit(), probe, sweep_job.amplitude
        )
        _, hd2f, hd3f = distortion_sweep(
            system.to_explicit(), probe, sweep_job.amplitude
        )
        devs = [
            _worst_rel_dev(hd2c, hd2f),
            _worst_rel_dev(hd3c, hd3f),
        ]
        dev = max((d for d in devs if d is not None), default=0.0)
        if dev > _INTERP_MARGIN * mc_job.interp_tol:
            return None, dev
        source = left["rom"]
        rom = ReducedOrderModel(
            candidate,
            basis,
            method=source.method,
            orders=source.orders,
            expansion_points=source.expansion_points,
            details={
                "interpolated": True,
                "anchors": [int(pair[0]), int(pair[1])],
                "probe_dev": float(dev),
            },
        )
        return rom, dev

    def _reduce_member(values, pair=None):
        """Run one family member through the tier ladder."""
        nonlocal system_info, base_digest
        start = time.perf_counter()
        system, info = _build_system(
            materialize(netlist, values, check=False), sparse
        )
        if system_info is None:
            system_info = info
        digest = structural_digest(system)
        if base_digest is None:
            base_digest = digest
        fingerprint = fingerprint_system(system)
        record = {
            "values": dict(values),
            "digest": digest,
            "rom": None,
            "tier": None,
            "reduce_time": None,
            "store_key": None,
        }

        # tier 1: exact dedup -- in-run first, then the store.
        prior = seen.get(fingerprint)
        if prior is not None:
            tiers["dedup"] += 1
            record.update(
                rom=prior["rom"], tier="dedup",
                store_key=prior["store_key"],
                reduce_time=time.perf_counter() - start,
            )
            return record
        key = None
        if store is not None:
            key = store.key_for(
                system, reducer, system_fingerprint=fingerprint
            )
            record["store_key"] = key
            artifact = store.load(key)
            if artifact is not None:
                store.hits += 1
                tiers["dedup"] += 1
                record.update(
                    rom=artifact.rom, tier="dedup",
                    reduce_time=time.perf_counter() - start,
                )
                seen[fingerprint] = record
                return record
            store.misses += 1

        # tier 2: residual-checked interpolation between neighbors.
        if mc_job.interp and pair is not None:
            rom, dev = _try_interp(system, digest, pair)
            if dev is not None:
                record["probe_dev"] = float(dev)
            if rom is not None:
                tiers["interp"] += 1
                record.update(
                    rom=rom, tier="interp",
                    reduce_time=time.perf_counter() - start,
                )
                # Interpolated ROMs never enter the store (see the
                # docstring) and never dedup later exact requests.
                return record
            if dev is not None:
                tiers["interp_rejected"] += 1

        # tier 3/4: a real reduction, warm-seeded when possible.  The
        # warm seed only applies within the family's shared structure;
        # a corner whose assembled structure diverged runs cold.
        explicit = system.to_explicit()
        workspace = AssociatedWorkspace.for_system(explicit)
        tier = "cold"
        if mc_job.warm and digest == base_digest:
            state = warm_pool.nearest(values)
            if state is not None:
                workspace.warm_start(**state)
                tier = "warm"
        artifact = reduce_artifact(
            system, reducer, fingerprint, workspace=workspace
        )
        if digest == base_digest:
            warm_pool.add(values, workspace.warm_state())
        tiers[tier] += 1
        record.update(
            rom=artifact.rom, tier=tier,
            reduce_time=time.perf_counter() - start,
        )
        if store is not None:
            store.store(key, artifact)
        seen[fingerprint] = record
        return record

    # -- phase 1: the corner grid, wave by wave -----------------------------
    for wave in grid.interp_schedule():
        for flat, pair in wave:
            record = _reduce_member(grid.corner_values(flat), pair=pair)
            record["index"] = int(flat)
            records[flat] = record
    t_grid = time.perf_counter() - t_start

    # -- phase 2: Monte-Carlo draws, served from the grid -------------------
    draw_records = []
    for draw_idx, values in enumerate(sampler):
        pair = None
        if mc_job.interp and len(grid) >= 2:
            pair = grid.bracket(values)
            if pair[0] == pair[1]:
                pair = None
        record = _reduce_member(values, pair=pair)
        record["index"] = int(draw_idx)
        draw_records.append(record)
    t_draws = time.perf_counter() - t_start - t_grid

    # -- phase 3: per-member distortion sweeps ------------------------------
    omegas = sweep_job.omegas
    all_records = [records[flat] for flat in sorted(records)] + draw_records
    for record in all_records:
        _, record["hd2"], record["hd3"] = distortion_sweep(
            record["rom"].system.to_explicit(), omegas, sweep_job.amplitude
        )
    t_sweeps = time.perf_counter() - t_start - t_grid - t_draws

    def _distribution(members):
        hd2 = np.stack([m["hd2"] for m in members])
        hd3 = np.stack([m["hd3"] for m in members])
        worst2 = hd2.max(axis=1)
        worst3 = hd3.max(axis=1)
        return {
            "hd2_p50": np.percentile(hd2, 50, axis=0),
            "hd2_p99": np.percentile(hd2, 99, axis=0),
            "hd3_p50": np.percentile(hd3, 50, axis=0),
            "hd3_p99": np.percentile(hd3, 99, axis=0),
            "worst_hd2_p50": float(np.percentile(worst2, 50)),
            "worst_hd2_p99": float(np.percentile(worst2, 99)),
            "worst_hd3_p50": float(np.percentile(worst3, 50)),
            "worst_hd3_p99": float(np.percentile(worst3, 99)),
        }

    distributions = {
        "omegas": omegas,
        "corners": _distribution(all_records[:len(records)]),
    }
    if draw_records:
        distributions["draws"] = _distribution(draw_records)

    def _public(record):
        public = {
            "index": record["index"],
            "values": record["values"],
            "tier": record["tier"],
            "reduce_time_s": record["reduce_time"],
            "rom_order": int(record["rom"].order),
            "hd2": record["hd2"],
            "hd3": record["hd3"],
        }
        if record.get("store_key"):
            public["store_key"] = record["store_key"]
        if record.get("probe_dev") is not None:
            public["probe_dev"] = record.get("probe_dev")
        return public

    roms = {flat: records[flat]["rom"] for flat in records}
    return ParametricResult(
        system_info,
        grid.describe(),
        sampler.describe(),
        tiers,
        [_public(records[flat]) for flat in sorted(records)],
        [_public(record) for record in draw_records],
        distributions,
        {"reduce": reduce_job, "sweep": sweep_job, "mc": mc_job},
        {
            "grid_s": t_grid,
            "draws_s": t_draws,
            "sweeps_s": t_sweeps,
            "total_s": time.perf_counter() - t_start,
        },
        roms=roms,
        store_stats=store.stats() if store is not None else None,
    )
