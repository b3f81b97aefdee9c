"""Solve-plan engine — declarative task lists run in order.

The paper's eq.-(18) decoupling splits the H2 machinery into
independent LTI subsystems whose Krylov chains and per-shift resolvent
solves have no data dependencies.  The layers that loop over such work
*emit plans* — flat lists of independent tasks — instead of inline
``for`` loops, so every unit of work passes one seam that owns
cancellation, fault injection, failure identity and retries.

* :class:`~repro.engine.plan.SolveTask` — one independent unit of work
  (a callable plus bound arguments and an optional ``tag`` for callers
  that need to regroup results).
* :class:`~repro.engine.plan.SolvePlan` — an ordered list of tasks.
  ``plan.execute()`` runs them in order on the calling thread and
  returns their results **in submission order**; ``cancel=`` is polled
  before each task, every attempt passes the ``engine.task`` fault
  site, and a failure surfaces as a :class:`~repro.errors.TaskError`
  that keeps the original exception type.

Execution is serial by design: 83–98% of a cold reduction is the
serial eq.-(18) Π sweep and the fanned-out tasks take milliseconds, so
on two cores neither a thread nor a process pool sped up any fan-out
(README, "Execution").  :func:`worker_stats` reports ``{"backend":
"serial", "workers": 1}`` for run records.  Shared caches stay
thread-safe: the serve daemon's handler threads call into them
concurrently.

Which layers emit plans
-----------------------
* ``volterra.AssociatedWorkspace`` consumers: the per-subsystem /
  per-expansion-point Krylov chains of
  ``AssociatedRealization.moment_vectors``, ``DecoupledH2Realization``
  (eq.-18 independent subsystems) and
  ``mor.AssociatedTransformMOR.build_basis``.
* ``pipeline.run_parametric`` — one distortion sweep per family member.

A distortion sweep itself emits no plan: it evaluates its whole grid
as one batch (``volterra.VolterraEvaluator.sum_kernels``) and polls
``cancel`` between kernel orders.
"""

from ..errors import (  # noqa: F401  (re-export: engine failures)
    TaskCancelled,
    TaskError,
)
from .plan import (  # noqa: F401
    SolvePlan,
    SolveTask,
    set_task_retries,
    task_retries,
    worker_stats,
)

__all__ = [
    "SolvePlan",
    "SolveTask",
    "TaskCancelled",
    "TaskError",
    "set_task_retries",
    "task_retries",
    "worker_stats",
]
