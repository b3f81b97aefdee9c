"""Deterministic fault injection for crash-safety testing.

The durable-write, store and checkpoint layers are instrumented with
named :func:`fault_point` calls at every boundary where a crash has a
distinct observable outcome (before/after an ``os.replace``, between an
artifact and its metadata, before/after a checkpoint commit).  A fault
*spec* arms one or more sites::

    REPRO_FAULT="checkpoint.before_commit:2"        # SIGKILL on 2nd hit
    REPRO_FAULT="serialize.before_replace:1:raise"  # raise on 1st hit
    REPRO_FAULT="store.before_meta:1,checkpoint.after_commit:3:raise"

Each entry is ``<site>:<n>[:<kind>]`` where *site* is one of the
instrumented sites below (any other name is refused, so a typo cannot
silently arm nothing), *n* is the 1-based hit count at which the site
fires (every site keeps its own process-wide counter) and *kind* is
``kill`` (default — ``SIGKILL`` to the current process, simulating
power loss: no atexit handlers, no flushes) or ``raise`` (raise
:class:`~repro.errors.FaultInjected`, for in-process tests).

The spec is read from ``REPRO_FAULT`` on first use; in-process tests use
:func:`configure`/:func:`reset` instead of the environment.  With no
faults armed, :func:`fault_point` is a dict lookup and a falsy check —
cheap enough to leave in production paths unconditionally.

Instrumented sites
------------------
========================== =================================================
``serialize.before_replace`` payload temp file written+fsynced, not renamed
``serialize.after_replace``  payload renamed, directory not yet fsynced
``durable.before_replace``   text temp file written+fsynced, not renamed
``durable.after_replace``    text renamed, directory not yet fsynced
``store.before_meta``        artifact.npz published, meta.json not yet
``checkpoint.before_block``  chain computed, block file not yet written
``checkpoint.before_commit`` block+solver written, manifest not rewritten
``checkpoint.after_commit``  stage fully committed (manifest durable)
========================== =================================================
"""

import os
import signal
import threading

from ..errors import FaultInjected, ValidationError

__all__ = ["FaultInjected", "configure", "fault_point", "hit_counts",
           "reset"]

_KINDS = ("kill", "raise")

#: Every site a :func:`fault_point` call declares (the table above).
SITES = frozenset({
    "serialize.before_replace",
    "serialize.after_replace",
    "durable.before_replace",
    "durable.after_replace",
    "store.before_meta",
    "checkpoint.before_block",
    "checkpoint.before_commit",
    "checkpoint.after_commit",
})

_lock = threading.Lock()
#: site -> (fire-at-hit, kind); None means "not yet parsed from env".
_specs = None
#: site -> hits seen so far (counts every instrumented pass, armed or not
#: for armed sites; unarmed sites are not counted to keep the no-op cheap).
_counts = {}


def _parse(text):
    """Parse a fault spec string into ``{site: (n, kind)}``."""
    specs = {}
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        fields = [f.strip() for f in part.split(":")]
        if len(fields) == 2:
            site, count = fields
            kind = "kill"
        elif len(fields) == 3:
            site, count, kind = fields
        else:
            raise ValidationError(
                f"fault spec entry {part!r} is not <site>:<n>[:<kind>]"
            )
        try:
            count = int(count)
        except ValueError as exc:
            raise ValidationError(
                f"fault spec hit count must be an integer, got {part!r}"
            ) from exc
        if count < 1:
            raise ValidationError(
                f"fault spec hit count must be >= 1, got {count} in {part!r}"
            )
        kind = kind.lower()
        if kind not in _KINDS:
            raise ValidationError(
                f"fault kind must be one of {_KINDS}, got {kind!r} "
                f"in {part!r}"
            )
        if site not in SITES:
            raise ValidationError(
                f"unknown fault site {site!r} in {part!r}; instrumented "
                f"sites are {sorted(SITES)}"
            )
        specs[site] = (count, kind)
    return specs


def configure(spec):
    """Arm the fault sites described by *spec* (a ``REPRO_FAULT`` string,
    or ``None``/``""`` to disarm).  Resets all hit counters.  Returns the
    parsed ``{site: (n, kind)}`` mapping.
    """
    global _specs
    parsed = _parse(spec) if spec else {}
    with _lock:
        _specs = parsed
        _counts.clear()
    return dict(parsed)


def reset():
    """Disarm everything and forget counters; the next :func:`fault_point`
    re-reads ``REPRO_FAULT`` from the environment."""
    global _specs
    with _lock:
        _specs = None
        _counts.clear()


def hit_counts():
    """Copy of the per-site hit counters (armed sites only)."""
    with _lock:
        return dict(_counts)


def fault_point(site):
    """Declare an instrumented crash site; fires if *site* is armed.

    ``kill`` faults terminate the process with ``SIGKILL`` — the closest
    user-space approximation of power loss.  ``raise`` faults raise
    :class:`~repro.errors.FaultInjected`.  Unarmed sites return
    immediately.
    """
    global _specs
    specs = _specs
    if specs is None:
        with _lock:
            if _specs is None:
                _specs = _parse(os.environ.get("REPRO_FAULT", ""))
            specs = _specs
    if not specs:
        return
    trigger = specs.get(site)
    if trigger is None:
        return
    with _lock:
        count = _counts.get(site, 0) + 1
        _counts[site] = count
    fire_at, kind = trigger
    if count != fire_at:
        return
    if kind == "raise":
        raise FaultInjected(
            f"injected fault at {site!r} (hit {count})", site=site, hit=count
        )
    os.kill(os.getpid(), signal.SIGKILL)
