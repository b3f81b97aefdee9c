"""Declarative solve plans: independent tasks with explicit inputs.

A :class:`SolvePlan` is the seam between the numerical layers and task
execution: a layer that loops over independent solves *adds one task
per loop iteration* (binding every input explicitly — tasks must not
depend on loop variables by closure mutation) and calls
:meth:`SolvePlan.execute`, which runs the tasks in order on the calling
thread and returns their results in submission order.

Failure semantics: a task exception is re-raised as a dynamically
created subclass of both :class:`~repro.errors.TaskError` and the
original exception type, carrying the task's identity (plan label,
submission index, tag, attempt count).  Handlers that catch the
original type across a plan boundary keep working; handlers that only
care *which* task died get the identity without parsing tracebacks.
Transient failures (OS errors, memory pressure, injected faults) are
retried up to the opt-in :func:`task_retries` bound before being
raised.
"""

import os
import threading

from ..errors import FaultInjected, TaskCancelled, TaskError, ValidationError
from ..testing.faults import fault_point

__all__ = [
    "SolveTask",
    "SolvePlan",
    "set_task_retries",
    "task_retries",
    "worker_stats",
]

#: Failure families eligible for bounded retry: environmental conditions
#: that can clear between attempts.  Deterministic failures (validation,
#: numerical breakdown, structural errors) always fail fast — retrying
#: them re-runs identical floating-point work to the identical end.
_TRANSIENT = (FaultInjected, OSError, MemoryError)

#: original exception type -> TaskError subclass preserving it.
_WRAP_CACHE = {}


def _wrapper_class(base):
    """TaskError subclass that is also a *base* (isinstance-preserving)."""
    cls = _WRAP_CACHE.get(base)
    if cls is None:
        if issubclass(base, TaskError):
            cls = base
        else:
            try:
                cls = type(
                    "Task" + base.__name__,
                    (TaskError, base),
                    {"__doc__": TaskError.__doc__, "__module__": __name__},
                )
            except TypeError:
                # Incompatible C-level layout (rare: e.g. OSError
                # subclasses with fixed slots): fall back to the plain
                # TaskError — the original stays reachable as __cause__.
                cls = TaskError
        _WRAP_CACHE[base] = cls
    return cls


def _task_failure(exc, plan_label, index, tag, attempts):
    """Build the TaskError (subclass) describing a failed task."""
    cls = _wrapper_class(type(exc))
    suffix = f" after {attempts} attempts" if attempts > 1 else ""
    message = (
        f"task {index} of plan {plan_label!r} (tag={tag!r}) "
        f"failed{suffix}: {exc}"
    )
    failure = cls(message)
    failure.plan_label = plan_label
    failure.task_index = index
    failure.task_tag = tag
    failure.attempts = attempts
    return failure


class SolveTask:
    """One independent unit of work: a callable with bound arguments.

    ``tag`` is free-form caller metadata (e.g. ``("H2-chain", s0, col)``)
    used to regroup results after execution; the engine never inspects
    it.
    """

    __slots__ = ("fn", "args", "kwargs", "tag")

    def __init__(self, fn, args=(), kwargs=None, tag=None):
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs) if kwargs else None
        self.tag = tag

    def __call__(self):
        if self.kwargs:
            return self.fn(*self.args, **self.kwargs)
        return self.fn(*self.args)

    def __repr__(self):
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"SolveTask({name}, tag={self.tag!r})"


class SolvePlan:
    """An ordered list of independent :class:`SolveTask` items.

    ``label`` names the emitting site in diagnostics; it carries no
    semantics.
    """

    def __init__(self, label=None):
        self.label = label
        self.tasks = []

    def add(self, fn, *args, tag=None, **kwargs):
        """Append a task calling ``fn(*args, **kwargs)``; returns it."""
        task = SolveTask(fn, args, kwargs, tag=tag)
        self.tasks.append(task)
        return task

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @property
    def tags(self):
        return [task.tag for task in self.tasks]

    def execute(self, retries=None, cancel=None):
        """Run every task in order; results in submission order.

        *retries* bounds re-execution of transiently failing tasks
        (default: the global :func:`task_retries`, itself 0 unless
        ``REPRO_TASK_RETRIES`` opts in); any failure surfaces as a
        :class:`~repro.errors.TaskError` subclass that preserves the
        original exception type and carries the task identity.

        *cancel* — a zero-argument callable polled before each task —
        makes the plan cooperatively cancellable: once it reports True
        the plan raises :class:`~repro.errors.TaskCancelled` instead of
        starting further tasks (the serving layer's request-timeout
        hook).  Completed tasks keep their results; cancellation never
        interrupts a task mid-flight.
        """
        if not self.tasks:
            return []
        if retries is None:
            retries = task_retries()
        total = len(self.tasks)
        results = []
        for index, task in enumerate(self.tasks):
            if cancel is not None and cancel():
                raise TaskCancelled(
                    f"plan cancelled after {index} of {total} tasks"
                )
            results.append(self._run(task, index, retries))
        return results

    def _run(self, task, index, retries):
        """Run one task behind the fault site, retry and wrap."""
        attempts = 0
        while True:
            attempts += 1
            try:
                fault_point("engine.task")
                return task()
            except Exception as exc:
                if attempts <= retries and isinstance(exc, _TRANSIENT):
                    continue
                raise _task_failure(
                    exc, self.label, index, task.tag, attempts
                ) from exc

    def __repr__(self):
        return f"SolvePlan({self.label!r}, {len(self.tasks)} tasks)"


def worker_stats():
    """How plans execute: always ``{"backend": "serial", "workers": 1}``."""
    return {"backend": "serial", "workers": 1}


# ---------------------------------------------------------------------------
# transient-failure retry policy
# ---------------------------------------------------------------------------

_retries_lock = threading.Lock()
#: Bounded-retry count for transient task failures; resolved lazily from
#: REPRO_TASK_RETRIES (default 0 — retries are strictly opt-in).
_task_retries = None


def _resolve_retries(value):
    try:
        count = int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"task retries must be a non-negative integer, got {value!r}"
        ) from exc
    if count < 0:
        raise ValidationError(
            f"task retries must be >= 0, got {count}"
        )
    return count


def task_retries():
    """The configured transient-retry count (``REPRO_TASK_RETRIES``)."""
    global _task_retries
    with _retries_lock:
        if _task_retries is None:
            raw = os.environ.get("REPRO_TASK_RETRIES", "").strip()
            if not raw:
                _task_retries = 0
            else:
                try:
                    _task_retries = _resolve_retries(raw)
                except ValidationError as exc:
                    _task_retries = 0
                    raise ValidationError(
                        f"REPRO_TASK_RETRIES must be a non-negative "
                        f"integer, got {raw!r}"
                    ) from exc
        return _task_retries


def set_task_retries(count):
    """Set the transient-retry count; returns the previous value.

    ``None`` reverts to the lazy ``REPRO_TASK_RETRIES`` default.  Only
    *transient* failures (OS errors, memory pressure, injected faults)
    are ever retried — deterministic numerical or validation failures
    fail fast regardless of this setting.
    """
    global _task_retries
    resolved = None if count is None else _resolve_retries(count)
    with _retries_lock:
        previous = _task_retries
        _task_retries = resolved
    return previous
