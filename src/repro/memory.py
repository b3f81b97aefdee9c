"""Memory budgeting: admit-or-spill of finished basis blocks.

A reduction at ``n >> 10^4`` holds O(n·r) dense state by construction:
per-chain Krylov blocks awaiting the final merge, the shared extended-
Krylov basis, and the eq.-(18) Π factors ``V``, ``Y``, ``U`` (nothing
with ``n·r²`` entries).  The one knob here is a byte budget on the
finished basis blocks: :meth:`MemoryBudget.admit` spills blocks past the
budget to disk as ``.npy`` files and hands them back as read-only
memory-mapped views — identical bytes, transparent to every consumer,
so the build degrades to out-of-core instead of OOM-ing.

The budget is process-global: set it with
``REPRO_MEMORY_BUDGET=512M`` in the environment, :func:`configure`, or
scoped via :class:`limit` (which is what ``run_pipeline(...,
memory_budget=...)`` uses).  Accounting is by ``weakref.finalize`` on
the admitted arrays: when a resident block is garbage-collected its
bytes return to the budget, and when a spilled view is collected its
backing file is unlinked.  Every spill file a budget creates is tracked
and removed by :meth:`MemoryBudget.cleanup` at end of job
(``limit.__exit__`` calls it), so a completed pipeline leaves an empty
spill directory.

Unlimited (the default) is a pure pass-through — ``admit`` returns its
argument untouched.
"""

import contextlib
import os
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = ["MemoryBudget", "cleanup", "configure", "current_budget",
           "limit", "parse_budget", "scope", "stats"]

_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3, "t": 1024 ** 4}


def parse_budget(value):
    """Parse a budget spec to bytes, or ``None`` for unlimited.

    Accepts ``None``/``""``/``"none"``/``"unlimited"``/``0`` (all
    unlimited), a plain byte count, or a count with a K/M/G/T binary
    suffix (case-insensitive): ``"512M"``, ``"2G"``, ``"1024k"``.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = int(value)
        if value < 0:
            raise ValidationError(
                f"memory budget must be >= 0, got {value}"
            )
        return value or None
    text = str(value).strip().lower()
    if text in ("", "none", "unlimited", "0"):
        return None
    scale = 1
    if text[-1] in _SUFFIXES:
        scale = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        count = float(text)
    except ValueError as exc:
        raise ValidationError(
            f"memory budget must look like '512M', '2G' or a byte "
            f"count, got {value!r}"
        ) from exc
    if count < 0:
        raise ValidationError(f"memory budget must be >= 0, got {value!r}")
    return int(count * scale) or None


class MemoryBudget:
    """Admit-or-spill accounting for large dense arrays.

    Parameters
    ----------
    budget : int or str or None
        Resident-byte budget (see :func:`parse_budget`); ``None`` means
        unlimited.
    spill_dir : str or Path, optional
        Directory for spill files.  Default: a fresh
        ``repro-spill-*`` temp directory, created lazily on first spill.
    """

    def __init__(self, budget=None, spill_dir=None):
        self.budget = parse_budget(budget)
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._own_dir = spill_dir is None
        self._lock = threading.Lock()
        self._resident = 0
        self._serial = 0
        self._owned_paths = set()
        self.admitted_blocks = 0
        self.spilled_blocks = 0
        self.spilled_bytes = 0

    # -- internals -----------------------------------------------------------

    def _credit(self, nbytes):
        with self._lock:
            self._resident -= nbytes

    def _spill_path(self, label):
        with self._lock:
            if self._spill_dir is None:
                self._spill_dir = Path(
                    tempfile.mkdtemp(prefix="repro-spill-")
                )
            self._serial += 1
            serial = self._serial
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        safe = "".join(
            ch if ch.isalnum() or ch in "-_." else "-" for ch in str(label)
        ) or "block"
        return self._spill_dir / f"{safe}-{serial:06d}.npy"

    @staticmethod
    def _unlink(path):
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- the one entry point -------------------------------------------------

    def admit(self, array, label="block"):
        """Account *array* against the budget; spill it if over.

        Returns either *array* itself (resident — its bytes are
        charged until it is garbage-collected) or a read-only
        ``np.memmap`` view of a spilled copy with identical shape,
        dtype and contents.  Arrays the budget cannot help with
        (non-ndarray, views without their own memory, tiny blocks)
        pass through unchanged.
        """
        if self.budget is None:
            return array
        if not isinstance(array, np.ndarray) or isinstance(array, np.memmap):
            return array
        nbytes = int(array.nbytes)
        if nbytes == 0:
            return array
        base = array
        while isinstance(base.base, np.ndarray):
            base = base.base
        if isinstance(base, np.memmap):
            # Views of earlier spills are already disk-backed;
            # re-spilling would copy the file.
            return array
        with self._lock:
            if self._resident + nbytes <= self.budget:
                self._resident += nbytes
                self.admitted_blocks += 1
                weakref.finalize(array, self._credit, nbytes)
                return array
        path = self._spill_path(label)
        np.save(path, np.ascontiguousarray(array))
        view = np.load(path, mmap_mode="r")
        with self._lock:
            self.spilled_blocks += 1
            self.spilled_bytes += nbytes
            self._owned_paths.add(str(path))
        weakref.finalize(view, self._forget, str(path))
        return view

    def _forget(self, path):
        """Finalizer for spilled views: unlink and drop the record."""
        with self._lock:
            self._owned_paths.discard(path)
        self._unlink(path)

    def cleanup(self):
        """End-of-job spill reclamation: unlink every file this budget
        created and remove the spill directory when it was our own temp
        dir and is now empty.

        Live memmap views stay readable (the data outlives the
        directory entry until the mapping is collected); what is
        reclaimed is the on-disk footprint a finished job would
        otherwise leak until garbage collection — or forever, for
        blocks kept alive by memoized workspaces.
        """
        with self._lock:
            paths = list(self._owned_paths)
            self._owned_paths.clear()
            spill_dir = self._spill_dir
            own_dir = self._own_dir
        for path in paths:
            self._unlink(path)
        if own_dir and spill_dir is not None:
            try:
                os.rmdir(spill_dir)
            except OSError:
                pass

    def stats(self):
        """JSON-safe counters."""
        with self._lock:
            return {
                "budget_bytes": self.budget,
                "resident_bytes": int(self._resident),
                "admitted_blocks": int(self.admitted_blocks),
                "spilled_blocks": int(self.spilled_blocks),
                "spilled_bytes": int(self.spilled_bytes),
                "spill_dir": (
                    str(self._spill_dir)
                    if self._spill_dir is not None else None
                ),
            }

    def __repr__(self):
        return (
            f"MemoryBudget(budget={self.budget!r}, "
            f"resident={self._resident}, spilled={self.spilled_blocks})"
        )


# ---------------------------------------------------------------------------
# global configuration
# ---------------------------------------------------------------------------

_config_lock = threading.Lock()
_budget = None  # resolved lazily from REPRO_MEMORY_BUDGET on first use
_UNLIMITED = MemoryBudget(None)


def _from_env():
    raw = os.environ.get("REPRO_MEMORY_BUDGET", "")
    try:
        parsed = parse_budget(raw)
    except ValidationError as exc:
        raise ValidationError(
            f"REPRO_MEMORY_BUDGET must look like '512M' or a byte count, "
            f"got {raw!r}"
        ) from exc
    return _UNLIMITED if parsed is None else MemoryBudget(parsed)


def current_budget():
    """The globally active :class:`MemoryBudget` (unlimited by default)."""
    global _budget
    with _config_lock:
        if _budget is None:
            _budget = _from_env()
        return _budget


def _set_budget(budget):
    global _budget
    with _config_lock:
        previous = _budget
        _budget = budget
    return previous


def configure(budget=None, spill_dir=None):
    """Install a process-global budget (``None`` = unlimited).

    Overrides ``REPRO_MEMORY_BUDGET`` for the rest of the process.
    Returns the installed :class:`MemoryBudget`.
    """
    parsed = parse_budget(budget)
    installed = (
        _UNLIMITED if parsed is None and spill_dir is None
        else MemoryBudget(parsed, spill_dir=spill_dir)
    )
    _set_budget(installed)
    return installed


def admit(array, label="block"):
    """Module-level convenience: ``current_budget().admit(...)``."""
    return current_budget().admit(array, label)


def stats():
    """Counters of the active budget."""
    return current_budget().stats()


def cleanup():
    """End-of-job reclamation of the active budget's spill files."""
    current_budget().cleanup()


class limit:
    """Context manager: temporarily install a budget.

    ``with memory.limit("256M"): ...`` — used by
    ``run_pipeline(memory_budget=...)`` and the spill tests.  Accepts a
    spec (see :func:`parse_budget`) or a ready :class:`MemoryBudget`.
    """

    def __init__(self, budget, spill_dir=None):
        if isinstance(budget, MemoryBudget):
            self._target = budget
        else:
            parsed = parse_budget(budget)
            self._target = (
                _UNLIMITED if parsed is None and spill_dir is None
                else MemoryBudget(parsed, spill_dir=spill_dir)
            )
        self._previous = None

    def __enter__(self):
        self._previous = _set_budget(self._target)
        return self._target

    def __exit__(self, exc_type, exc, tb):
        _set_budget(self._previous)
        if self._target is not _UNLIMITED:
            # End-of-job spill reclamation: a completed (or failed)
            # scoped job must not leak its spill files — blocks kept
            # alive by memoized workspaces would otherwise pin them
            # until process exit.
            self._target.cleanup()
        return False


def scope(budget=None):
    """One job's :class:`limit`, when *budget* is given.

    ``None`` leaves the budget to the environment.  The budget is
    process-wide, so this is for a process running one job at a time:
    ``run_pipeline(memory_budget=...)`` and the one-shot CLI's
    ``--memory-budget``.
    """
    return contextlib.nullcontext() if budget is None else limit(budget)
