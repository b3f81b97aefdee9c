"""Typed request/response contracts for the serving layer.

One request class per pipeline verb (``info`` / ``reduce`` / ``sweep`` /
``simulate`` / ``mc``), each a declarative config validated eagerly at
the boundary: unknown fields are rejected, job sections coerce through
the same :class:`~repro.pipeline.ReductionJob` / :class:`SweepJob` /
:class:`TransientJob` classes the pipeline uses, and — exactly like the
CLI — a job omitted from the payload falls back to the spec's embedded
section.  Because both ``python -m repro <verb>`` and the HTTP daemon
build these objects and hand them to the same
:meth:`~repro.serve.service.ReproService.handle`, a request is
guaranteed to run the identical code path (and produce bit-identical
numbers) whichever front door it came through.

A request carries its jobs and nothing else: a payload naming any
other field is refused as unknown.

The response side is :class:`ServeOutcome`: the verb's
:class:`~repro.pipeline.PipelineResult` plus the serving metadata
(which cache tier answered, the content-addressed artifact key, wall
time).  ``outcome.report()`` is the pipeline report with that metadata
added *additively*, so existing report consumers keep parsing.
"""

from ..errors import ValidationError
from ..pipeline import (
    ParametricReductionJob,
    ReductionJob,
    SweepJob,
    TransientJob,
)

__all__ = [
    "InfoRequest",
    "ReduceRequest",
    "SweepRequest",
    "SimulateRequest",
    "McRequest",
    "ServeOutcome",
    "REQUEST_TYPES",
]


class _RequestBase:
    """Shared boundary validation: a spec dict plus the sparse toggle."""

    verb = None
    fields = ("spec", "sparse")

    def __init__(self, spec, sparse=None):
        if not isinstance(spec, dict):
            raise ValidationError(
                f"{self.verb} spec must be a JSON object, got "
                f"{type(spec).__name__}"
            )
        self.spec = spec
        self.sparse = None if sparse is None else bool(sparse)

    @classmethod
    def from_payload(cls, payload):
        """Build and validate a request from a decoded JSON payload.

        Strict at the boundary: the payload must be an object, must
        carry ``spec``, and may only use this verb's declared fields —
        a typo'd field is a :class:`~repro.errors.ValidationError`
        (HTTP 400), never a silent no-op.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"{cls.verb} payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = set(payload) - set(cls.fields)
        if unknown:
            raise ValidationError(
                f"unknown {cls.verb} fields: {sorted(unknown)}; "
                f"expected a subset of {sorted(cls.fields)}"
            )
        if "spec" not in payload:
            raise ValidationError(f"{cls.verb} payload needs a 'spec'")
        return cls(**payload)

    def describe(self):
        """JSON-safe summary (for logs/diagnostics, not the report)."""
        return {"verb": self.verb, "sparse": self.sparse}


class InfoRequest(_RequestBase):
    """Compile the spec and report system structure (no jobs)."""

    verb = "info"
    fields = ("spec", "sparse")


class _JobRequestBase(_RequestBase):
    """Verbs that run jobs: a reduce job plus at most one query job."""

    sweep_job = None
    transient_job = None

    def __init__(self, spec, sparse=None, reduce=None, checkpoint=None,
                 resume=False, require_reduce=False):
        super().__init__(spec, sparse)
        section = reduce if reduce is not None else self.spec.get("reduce")
        if section is None and require_reduce:
            raise ValidationError(
                "no reduction configured: pass 'reduce' in the payload "
                "or add a 'reduce' section to the spec"
            )
        self.reduce_job = ReductionJob.coerce(section)
        self.checkpoint = checkpoint
        self.resume = bool(resume)
        if (checkpoint or resume) and self.reduce_job is None:
            raise ValidationError(
                "checkpoint/resume only apply to the reduce step; pass "
                "reduce=... as well"
            )


class ReduceRequest(_JobRequestBase):
    """Build (or fetch) a ROM."""

    verb = "reduce"
    fields = ("spec", "sparse", "reduce", "checkpoint", "resume")

    def __init__(self, spec, sparse=None, reduce=None, checkpoint=None,
                 resume=False):
        super().__init__(
            spec, sparse=sparse, reduce=reduce, checkpoint=checkpoint,
            resume=resume, require_reduce=True,
        )


class SweepRequest(_JobRequestBase):
    """Distortion sweep (on the ROM when a reduction is configured)."""

    verb = "sweep"
    fields = ("spec", "sparse", "reduce", "sweep", "checkpoint", "resume")

    def __init__(self, spec, sparse=None, reduce=None, sweep=None,
                 checkpoint=None, resume=False):
        super().__init__(
            spec, sparse=sparse, reduce=reduce, checkpoint=checkpoint,
            resume=resume,
        )
        section = sweep if sweep is not None else self.spec.get("sweep")
        if section is None:
            raise ValidationError(
                "no sweep configured: pass 'sweep' in the payload or "
                "add a 'sweep' section to the spec"
            )
        self.sweep_job = SweepJob.coerce(section)


class SimulateRequest(_JobRequestBase):
    """Transient simulation (on the ROM when a reduction is configured)."""

    verb = "simulate"
    fields = (
        "spec", "sparse", "reduce", "transient", "checkpoint", "resume",
    )

    def __init__(self, spec, sparse=None, reduce=None, transient=None,
                 checkpoint=None, resume=False):
        super().__init__(
            spec, sparse=sparse, reduce=reduce, checkpoint=checkpoint,
            resume=resume,
        )
        section = (
            transient if transient is not None
            else self.spec.get("transient")
        )
        if section is None:
            raise ValidationError(
                "no transient configured: pass 'transient' in the "
                "payload or add a 'transient' section to the spec"
            )
        self.transient_job = TransientJob.coerce(section)


class McRequest(_RequestBase):
    """Parametric multi-corner / Monte-Carlo sweep of a ROM family.

    The spec must describe a parameter-annotated netlist (a netlist
    dict with a ``parameters`` list, or a generator spec plus a
    top-level ``parameters`` list); ``reduce`` / ``sweep`` / ``mc``
    sections come from the payload or fall back to the spec's embedded
    sections, exactly like the other job verbs.  Handled by
    :func:`~repro.pipeline.run_parametric` — checkpoint/resume do not
    apply (every family member is cheap relative to the family, and
    the store dedup tier makes a rerun resume naturally).
    """

    verb = "mc"
    fields = ("spec", "sparse", "reduce", "sweep", "mc")

    def __init__(self, spec, sparse=None, reduce=None, sweep=None,
                 mc=None):
        super().__init__(spec, sparse)
        self.reduce_job = ReductionJob.coerce(
            reduce if reduce is not None else self.spec.get("reduce")
        )
        sweep_section = (
            sweep if sweep is not None else self.spec.get("sweep")
        )
        if sweep_section is None:
            raise ValidationError(
                "no sweep configured: pass 'sweep' in the payload or "
                "add a 'sweep' section to the spec (the distortion "
                "distributions across the family are the mc output)"
            )
        self.sweep_job = SweepJob.coerce(sweep_section)
        self.mc_job = ParametricReductionJob.coerce(
            mc if mc is not None else self.spec.get("mc")
        )
        if self.mc_job is None:
            self.mc_job = ParametricReductionJob()


#: verb name -> request class (the daemon's routing table).
REQUEST_TYPES = {
    cls.verb: cls
    for cls in (
        InfoRequest, ReduceRequest, SweepRequest, SimulateRequest,
        McRequest,
    )
}


class ServeOutcome:
    """One served request: the pipeline result plus serving metadata.

    Attributes
    ----------
    verb : str
    result : PipelineResult
    served_from : str or None
        Which tier answered the reduce step — ``"hot"`` (in-memory
        cache), ``"disk"`` (model-store load) or ``"cold"`` (computed
        this request); ``None`` when no reduction was involved.
    artifact_key : str or None
        The content-addressed store key of the reduction.
    wall_time_s : float or None
        Service-side wall time of the whole request.
    """

    def __init__(self, verb, result, served_from=None, artifact_key=None,
                 wall_time_s=None):
        self.verb = verb
        self.result = result
        self.served_from = served_from
        self.artifact_key = artifact_key
        self.wall_time_s = wall_time_s

    def report(self):
        """The pipeline report, tagged with the serving metadata.

        Strictly additive over ``PipelineResult.report()``: the
        ``command`` key the CLI has always emitted, a top-level
        ``serving`` block (wall time), plus ``reduction.served_from`` /
        ``reduction.artifact_key`` when a reduction ran — existing
        consumers of the report shape are untouched.  The tags are
        plain JSON scalars, so the tree stays as JSON-safe as the
        pipeline report it extends.
        """
        report = self.result.report()
        report["command"] = self.verb
        if self.wall_time_s is not None:
            report["serving"] = {"wall_time_s": float(self.wall_time_s)}
        reduction = report.get("reduction")
        if reduction is not None:
            if self.served_from is not None:
                reduction["served_from"] = self.served_from
            if self.artifact_key is not None:
                reduction["artifact_key"] = self.artifact_key
        return report

    def __repr__(self):
        return (
            f"ServeOutcome({self.verb!r}, served_from="
            f"{self.served_from!r})"
        )
