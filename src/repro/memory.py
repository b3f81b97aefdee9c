"""Memory budgeting: block planning, tile arena, and admit-or-spill.

A reduction at ``n >> 10^4`` holds three kinds of O(n·r) dense state:
per-chain Krylov blocks awaiting the final merge, the shared extended-
Krylov basis, and the eq.-(18) ``n × r²`` Π left factor.  This module
gives the solver core two cooperating knobs:

* **Blockwise streaming** (:class:`BlockPlanner`): every n-row
  intermediate in the Π build and the lifted H3 chains is produced and
  consumed in row blocks of at most ``max_block`` rows, so peak
  *resident* memory is O(n + max_block · r²) rather than O(n · r²).
  ``max_block`` resolves as explicit setting (:class:`tiling`,
  ``run_pipeline(max_block=...)``, ``--max-block``) >
  ``REPRO_MAX_BLOCK`` > derived from the byte budget > ``n`` (a single
  block — which executes exactly the historical unblocked operations,
  so results are bit-identical).  Full-size work arrays past the budget
  are allocated as writable memory-mapped *tiles* in a per-budget arena
  (:meth:`MemoryBudget.tile`); tile backing never changes numerics.
* **Admit-or-spill** (:meth:`MemoryBudget.admit`): finished blocks past
  the budget are spilled to disk as ``.npy`` files and handed back as
  read-only memory-mapped views — identical bytes, transparent to every
  consumer, so the build degrades to out-of-core instead of OOM-ing.

The budget is process-global: set it with
``REPRO_MEMORY_BUDGET=512M`` in the environment, :func:`configure`, or
scoped via :class:`limit` (which is what ``run_pipeline(...,
memory_budget=...)`` uses).  Accounting is by ``weakref.finalize`` on
the admitted arrays: when a resident block is garbage-collected its
bytes return to the budget, and when a spilled view is collected its
backing file is unlinked.  Every spill/arena file a budget creates is
tracked and removed by :meth:`MemoryBudget.cleanup` at end of job
(``limit.__exit__`` calls it), so a completed pipeline leaves an empty
spill directory.

Unlimited (the default) is a pure pass-through — ``admit`` returns its
argument untouched and tiles are ordinary arrays.
"""

import contextlib
import os
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = ["BlockPlanner", "MemoryBudget", "block_rows", "cleanup",
           "configure", "current_budget", "current_planner", "limit",
           "parse_budget", "parse_max_block", "release", "scope", "stats",
           "tile", "tiling"]

_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3, "t": 1024 ** 4}

#: Fraction of the byte budget one streamed tile row-block may occupy;
#: the Π build holds a handful of live tiles (g2r/ct/xt/left), so the
#: derived ``max_block`` keeps their combined resident slices within
#: budget.
_TILE_FRACTION = 4

#: Floor for the *derived* ``max_block``: a budget tight enough to ask
#: for fewer rows than this gains nothing from going lower (the Π build
#: holds O(r²)-row working sets regardless) and single-digit blocks
#: degrade the blocked-accumulation conditioning.  An explicit
#: ``max_block``/``REPRO_MAX_BLOCK`` is not floored — tests use 1-row
#: blocks deliberately.
_MIN_DERIVED_BLOCK = 32


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
        self.tile_blocks = 0
        self.tile_bytes = 0

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
            # Views of arena tiles (or of earlier spills) are already
            # disk-backed; re-spilling would copy the file.
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

    # -- streamed tiles ------------------------------------------------------

    def tile(self, shape, dtype=float, label="tile"):
        """A zeroed work array, disk-backed when it would bust the budget.

        Under an unlimited budget (or when the array is comfortably
        small) this is ``np.zeros`` — the streamed code paths then run
        entirely in memory.  Past that it is a *writable* ``.npy``
        memmap in the budget's spill arena: byte-identical semantics
        (POSIX file extension zero-fills), O(page cache) residency, and
        the file is reclaimed by :meth:`release`/:meth:`cleanup`.
        """
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if self.budget is None or nbytes * _TILE_FRACTION <= self.budget:
            if self.budget is not None:
                with self._lock:
                    self.tile_blocks += 1
            return np.zeros(shape, dtype=dtype)
        path = self._spill_path(label)
        arr = np.lib.format.open_memmap(
            path, mode="w+", dtype=dtype, shape=tuple(int(s) for s in shape)
        )
        with self._lock:
            self.tile_blocks += 1
            self.tile_bytes += nbytes
            # Disk-backed tiles *are* spilled blocks: they carry the
            # same "bytes that went to the spill dir" meaning callers
            # already watch through ``spilled_blocks``/``spilled_bytes``.
            self.spilled_blocks += 1
            self.spilled_bytes += nbytes
            self._owned_paths.add(str(path))
        return arr

    def release(self, array):
        """Eagerly reclaim the arena file behind *array*, if any.

        A no-op for plain arrays and for files this budget does not
        own.  Safe while views are still alive: POSIX keeps the mapped
        pages readable until the mapping itself is dropped.
        """
        base = array
        while isinstance(base, np.ndarray) and isinstance(base.base,
                                                          np.ndarray):
            base = base.base
        filename = getattr(base, "filename", None)
        if filename is None:
            return
        path = str(filename)
        with self._lock:
            owned = path in self._owned_paths
            self._owned_paths.discard(path)
        if owned:
            self._unlink(path)

    def cleanup(self):
        """End-of-job spill reclamation: unlink every file this budget
        created (spilled blocks *and* arena tiles) and remove the spill
        directory when it was our own temp dir and is now empty.

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
                "tile_blocks": int(self.tile_blocks),
                "tile_bytes": int(self.tile_bytes),
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


def parse_max_block(value):
    """Parse a ``max_block`` row count, or ``None`` for "derive/off".

    Accepts ``None``/``""``/``"none"``/``"auto"``/``0`` (all meaning
    "no explicit setting") or a positive integer row count.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValidationError(f"max_block must be an integer, got {value!r}")
    if isinstance(value, (int, float)):
        count = int(value)
    else:
        text = str(value).strip().lower()
        if text in ("", "none", "auto", "0"):
            return None
        try:
            count = int(text)
        except ValueError as exc:
            raise ValidationError(
                f"max_block must be a positive row count, got {value!r}"
            ) from exc
    if count < 0:
        raise ValidationError(f"max_block must be >= 0, got {value!r}")
    return count or None


class BlockPlanner:
    """Budget → ``max_block`` derivation plus the tile arena of one build.

    Every streamed stage asks the planner two questions: *how many rows
    per block* (:meth:`block_rows` — explicit setting, else derived from
    the byte budget and the row width, else ``n`` for a single block)
    and *where do full-size work arrays live* (:meth:`tile` — RAM under
    an unlimited/roomy budget, a writable memmap in the budget's arena
    otherwise).  Tile backing never changes numerics; ``max_block`` only
    changes summation order across block boundaries (≤ 1e-10 drift), and
    ``max_block >= n`` executes exactly the unblocked operations.
    """

    def __init__(self, budget, max_block=None):
        self.budget = budget if budget is not None else _UNLIMITED
        self.max_block = parse_max_block(max_block)

    def block_rows(self, n, row_bytes=1):
        """Rows per streamed block for an ``(n, ...)`` intermediate with
        *row_bytes* bytes per row.  Clamped to ``[1, n]``."""
        n = max(int(n), 1)
        explicit = self.max_block
        if explicit is None:
            explicit = _env_max_block()
        if explicit is not None:
            return max(1, min(int(explicit), n))
        if self.budget.budget:
            per_row = max(int(row_bytes), 1)
            derived = self.budget.budget // (_TILE_FRACTION * per_row)
            derived = max(int(derived), _MIN_DERIVED_BLOCK)
            return min(derived, n)
        return n

    def tile(self, shape, dtype=float, label="tile"):
        """Arena-allocating :meth:`MemoryBudget.tile` of this planner's
        budget."""
        return self.budget.tile(shape, dtype=dtype, label=label)

    def release(self, array):
        """Eagerly reclaim an arena tile (:meth:`MemoryBudget.release`)."""
        self.budget.release(array)


# ---------------------------------------------------------------------------
# global configuration
# ---------------------------------------------------------------------------

_config_lock = threading.Lock()
_budget = None  # resolved lazily from REPRO_MEMORY_BUDGET on first use
_max_block = None  # explicit process-global max_block (tiling/configure)
_UNLIMITED = MemoryBudget(None)


def _env_max_block():
    raw = os.environ.get("REPRO_MAX_BLOCK", "")
    try:
        return parse_max_block(raw)
    except ValidationError as exc:
        raise ValidationError(
            f"REPRO_MAX_BLOCK must be a positive row count, got {raw!r}"
        ) from exc


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


def configure(budget=None, spill_dir=None, max_block=None):
    """Install a process-global budget (``None`` = unlimited).

    Overrides ``REPRO_MEMORY_BUDGET`` for the rest of the process;
    *max_block*, when given, overrides ``REPRO_MAX_BLOCK`` the same way
    (pass ``0``/``"auto"`` to return to the derived default).
    Returns the installed :class:`MemoryBudget`.
    """
    global _max_block
    parsed = parse_budget(budget)
    installed = (
        _UNLIMITED if parsed is None and spill_dir is None
        else MemoryBudget(parsed, spill_dir=spill_dir)
    )
    _set_budget(installed)
    if max_block is not None:
        with _config_lock:
            _max_block = parse_max_block(max_block)
    return installed


def admit(array, label="block"):
    """Module-level convenience: ``current_budget().admit(...)``."""
    return current_budget().admit(array, label)


def stats():
    """Counters of the active budget."""
    return current_budget().stats()


def current_planner():
    """The active :class:`BlockPlanner` (budget + explicit ``max_block``)."""
    with _config_lock:
        explicit = _max_block
    return BlockPlanner(current_budget(), explicit)


def block_rows(n, row_bytes=1):
    """Module-level ``current_planner().block_rows(...)``."""
    return current_planner().block_rows(n, row_bytes)


def tile(shape, dtype=float, label="tile"):
    """Module-level ``current_planner().tile(...)``."""
    return current_planner().tile(shape, dtype=dtype, label=label)


def release(array):
    """Module-level ``current_budget().release(...)``."""
    current_budget().release(array)


def cleanup():
    """End-of-job reclamation of the active budget's spill/arena files."""
    current_budget().cleanup()


class tiling:
    """Context manager: temporarily force an explicit ``max_block``.

    ``with memory.tiling(4096): ...`` — used by
    ``run_pipeline(max_block=...)`` and
    ``AssociatedTransformMOR.reduce(max_block=...)``.  ``None`` is a
    no-op (inherits ``REPRO_MAX_BLOCK`` / the budget derivation).
    """

    def __init__(self, max_block):
        self._target = parse_max_block(max_block)
        self._previous = None
        self._active = False

    def __enter__(self):
        global _max_block
        if self._target is not None:
            with _config_lock:
                self._previous = _max_block
                _max_block = self._target
            self._active = True
        return self

    def __exit__(self, exc_type, exc, tb):
        global _max_block
        if self._active:
            with _config_lock:
                _max_block = self._previous
            self._active = False
        return False


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
            # scoped job must not leak its spill/arena files — blocks
            # kept alive by memoized workspaces would otherwise pin
            # them until process exit.
            self._target.cleanup()
        return False


@contextlib.contextmanager
def scope(budget=None, max_block=None):
    """One job's :class:`limit` and :class:`tiling`, each when given.

    ``None`` leaves that setting to the environment.  Both settings
    are process-wide, so this is for a process running one job at a
    time: ``run_pipeline(memory_budget=..., max_block=...)`` and the
    one-shot CLI's ``--memory-budget``/``--max-block``.
    """
    with contextlib.ExitStack() as stack:
        if budget is not None:
            stack.enter_context(limit(budget))
        stack.enter_context(tiling(max_block))
        yield
