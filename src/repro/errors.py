"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.  The
subclasses separate the three broad failure domains: bad user input,
numerical breakdown inside a solver, and model/system inconsistencies.
"""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, dtype, or value)."""


class NumericalError(ReproError, ArithmeticError):
    """A numerical procedure broke down.

    Examples: a Sylvester equation with a singular spectrum pairing
    (lambda_i(A) + lambda_j(B) == 0), a shifted solve at an eigenvalue,
    or an Arnoldi iteration that cannot produce a new direction.
    """


class SystemStructureError(ReproError):
    """A system object is structurally inconsistent.

    Raised, e.g., when matrix dimensions in a QLDAE do not agree, when a
    descriptor system's pencil is singular, or when an operation requires
    a SISO system but a MIMO one was supplied.
    """


class ConvergenceError(NumericalError):
    """An iterative procedure (Newton, transient step) failed to converge."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        #: Number of iterations performed before giving up (may be None).
        self.iterations = iterations
        #: Last residual norm observed (may be None).
        self.residual = residual


class TaskCancelled(ReproError):
    """A long computation was cancelled cooperatively before completion.

    Raised when a ``cancel`` callback reports True at one of the polls
    a computation makes between units of work (a distortion sweep
    between kernel orders, a multi-shift sparse solve between
    factorizations, a served request before its reduction or transient
    starts) — the serving layer uses it to stop a timed-out request.
    Work already completed stays valid (memoized kernels keep their
    deterministic results); only the remaining work is skipped, so
    cancellation can never corrupt a shared cache.
    """


class FaultInjected(ReproError):
    """A deterministic fault fired at a :func:`repro.testing.faults.
    fault_point` (``REPRO_FAULT=<site>:<n>:raise``).

    Only ever raised by the fault-injection harness; production code
    paths never construct it.
    """

    def __init__(self, message, site=None, hit=None):
        super().__init__(message)
        #: The fault site that fired (e.g. ``"checkpoint.before_commit"``).
        self.site = site
        #: The 1-based hit count at which the site fired.
        self.hit = hit
