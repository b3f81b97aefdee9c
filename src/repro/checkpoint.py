"""Crash-safe checkpoint/resume state for long-running reductions.

A multi-hour basis build at ``n >> 10^4`` that dies at 95% must not
restart from zero.  :class:`JobState` snapshots a reduction's progress
at *stage* boundaries — one stage per Krylov chain — so a killed build
loses at most the chain that was running, and resumes from its last
committed stage to a **bit-identical** ROM: together with each stage
the workspace's mutable solver state (the shared extended-Krylov basis,
the fallback-shift cache, the factored Π) is snapshotted whenever it
changed, so the resumed chains see exactly the floating-point
environment the cold run would have given them.

On-disk layout under the checkpoint directory::

    manifest.json          committed-stage index — the single commit point
    blocks/<digest>.npz    per-stage chain payloads
    solver-<digest>.npz    extended-Krylov solver snapshot as of a stage
    pi-<digest>.npz        factored-Π snapshot (written once: Π is
                           immutable after its build)

Commit protocol (crash consistency): the stage's block payload and
solver snapshot are written first (atomic + fsync through
:func:`~repro.serialize.save_payload`), then ``manifest.json`` is
rewritten durably.  A crash anywhere in between leaves the previous
manifest intact — a stage is either fully committed (block *and*
matching solver state referenced together) or invisible; orphaned
block/solver files from a crashed commit are overwritten or garbage-
collected on the next run.  Stages are executed and committed in a
fixed deterministic order, so the committed set is always a prefix of
the stage sequence and the snapshot referenced by the last committed
stage is exactly the solver state the next stage must start from.

Checkpoints are keyed by the same structural × reducer fingerprint the
:class:`~repro.store.ModelStore` shards artifacts by
(:func:`checkpoint_for`), so a checkpoint can never be resumed against
a different system or reducer configuration: a mismatch discards the
stale state and starts fresh.  So does damage: a manifest that does not
parse, or a committed block or last-stage snapshot that cannot be read,
discards the checkpoint when it is opened — a checkpoint must never be
able to crash the build.
"""

import hashlib
import json
import logging
import shutil
from pathlib import Path

from .errors import ValidationError
from .serialize import durable_write, load_payload, save_payload
from .testing.faults import fault_point

__all__ = ["CHECKPOINT_SCHEMA", "JobState", "checkpoint_for"]

_log = logging.getLogger(__name__)

#: Manifest schema version; a mismatch discards the checkpoint (stale
#: state is merely a lost head start, never worth a migration bug).
#: Version 2: one stage per chain (version 1 grouped up to four).
#: Version 3: the Π snapshot holds the factors ``v``/``y``/``u``
#: (version 2 held the ``(n, r²)`` product ``left``).
CHECKPOINT_SCHEMA = 3


def _stage_digest(stage_id):
    return hashlib.sha256(str(stage_id).encode("utf-8")).hexdigest()[:16]


class JobState:
    """Resumable on-disk state of one reduction build.

    Parameters
    ----------
    directory : str or Path
        Checkpoint directory (created if absent).
    system_fingerprint, reducer_fingerprint : str, optional
        Identity of the job this state belongs to.  When given, a
        manifest recorded under different fingerprints (or schema) is
        discarded instead of resumed.

    Attributes
    ----------
    loaded : int
        Stages served from disk by this process (resume hits).
    computed : int
        Stages computed and committed by this process.
    resumed : bool
        True when the manifest held committed stages at open time.
    """

    def __init__(self, directory, system_fingerprint=None,
                 reducer_fingerprint=None):
        self.directory = Path(directory)
        self.system_fingerprint = system_fingerprint
        self.reducer_fingerprint = reducer_fingerprint
        self._stages = {}   # stage_id -> {"id", "block", "solver", "pi"}
        self._order = []    # stage ids in commit order
        self.loaded = 0
        self.computed = 0
        self.resumed = False
        self.directory.mkdir(parents=True, exist_ok=True)
        self._read_manifest()

    # -- manifest ------------------------------------------------------------

    @property
    def manifest_path(self):
        return self.directory / "manifest.json"

    def _read_manifest(self):
        path = self.manifest_path
        if not path.exists():
            return
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            stages = data["stages"]
            schema = data["schema"]
        except Exception:
            # Torn or garbled manifest (the commit protocol makes this
            # near-impossible, but a checkpoint must never be able to
            # crash the build): start fresh.
            self._wipe()
            return
        if schema != CHECKPOINT_SCHEMA:
            self._wipe()
            return
        for ours, theirs in (
            (self.system_fingerprint, data.get("system_fingerprint")),
            (self.reducer_fingerprint, data.get("reducer_fingerprint")),
        ):
            if ours is not None and theirs is not None and ours != theirs:
                # A different job's state under our directory: resuming
                # it would silently produce the wrong ROM.
                self._wipe()
                return
        for entry in stages:
            self._stages[entry["id"]] = entry
            self._order.append(entry["id"])
        if not self._readable():
            # A committed file a resume would read is missing or
            # damaged: by the same rule, start fresh.
            self._wipe()
            return
        self.resumed = bool(self._order)

    def _readable(self):
        """True when every committed block, and every snapshot the last
        stage references, loads."""
        if not self._order:
            return True
        try:
            last = self._stages[self._order[-1]]
            names = [
                f"blocks/{self._stages[sid]['block']}" for sid in self._order
            ]
            names += [last[key] for key in ("solver", "pi") if last[key]]
            for name in names:
                load_payload(self.directory / name)
        except Exception as exc:
            _log.warning("discarding damaged checkpoint %s: %r",
                         self.directory, exc)
            return False
        return True

    def _write_manifest(self):
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "system_fingerprint": self.system_fingerprint,
            "reducer_fingerprint": self.reducer_fingerprint,
            "stages": [self._stages[sid] for sid in self._order],
        }
        durable_write(
            self.manifest_path,
            json.dumps(manifest, indent=2) + "\n",
        )

    def _wipe(self):
        """Drop all recorded state and stale files; keep the directory."""
        self._stages = {}
        self._order = []
        self.resumed = False
        for child in self.directory.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                try:
                    child.unlink()
                except OSError:
                    pass

    # -- stages --------------------------------------------------------------

    def __len__(self):
        return len(self._order)

    def stage_ids(self):
        """Committed stage ids in commit order."""
        return list(self._order)

    def has_stage(self, stage_id):
        """True when *stage_id* is committed."""
        return stage_id in self._stages

    def load_stage(self, stage_id):
        """The committed payload tree of *stage_id* (counts as a hit)."""
        entry = self._stages.get(stage_id)
        if entry is None:
            raise ValidationError(
                f"stage {stage_id!r} is not committed in {self.directory}"
            )
        payload = load_payload(self.directory / "blocks" / entry["block"])
        self.loaded += 1
        return payload

    def solver_state(self):
        """Solver snapshot recorded as of the last committed stage, with
        the solver and Π halves merged back into one
        :meth:`~repro.volterra.associated.AssociatedWorkspace
        .restore_solver_state` payload.  ``None`` when nothing is
        committed or no stage carried solver state."""
        if not self._order:
            return None
        entry = self._stages[self._order[-1]]
        merged = {}
        for key in ("solver", "pi"):
            if entry[key]:
                merged.update(load_payload(self.directory / entry[key]))
        return merged or None

    def commit_stage(self, stage_id, payload, solver_state=None,
                     pi_state=None):
        """Durably commit one stage: *payload* plus (optionally) the
        solver/Π snapshots the *next* stage must start from.

        ``solver_state=None`` / ``pi_state=None`` mean "unchanged since
        the previous stage" — the previous snapshot references are
        carried forward.  The two halves are split so the large,
        write-once Π factor is not rewritten with every stage whose
        Krylov basis grew.  The manifest rewrite is the single commit
        point; crash sites ``checkpoint.before_block`` /
        ``checkpoint.before_commit`` / ``checkpoint.after_commit``
        bracket it.
        """
        digest = _stage_digest(stage_id)
        blocks_dir = self.directory / "blocks"
        blocks_dir.mkdir(parents=True, exist_ok=True)
        block_name = f"{digest}.npz"
        fault_point("checkpoint.before_block")
        # Checkpoint payloads are written uncompressed: they are
        # snapshots of incremental progress, rewritten often and
        # discarded after success — compression time would eat directly
        # into the <= 10% overhead budget.
        save_payload(blocks_dir / block_name, payload, compress=False)
        last = self._stages[self._order[-1]] if self._order else {}
        solver_name = last.get("solver")
        pi_name = last.get("pi")
        if solver_state is not None:
            solver_name = f"solver-{digest}.npz"
            save_payload(
                self.directory / solver_name, solver_state, compress=False
            )
        if pi_state is not None:
            pi_name = f"pi-{digest}.npz"
            save_payload(
                self.directory / pi_name, pi_state, compress=False
            )
        fault_point("checkpoint.before_commit")
        entry = {
            "id": stage_id, "block": block_name,
            "solver": solver_name, "pi": pi_name,
        }
        if stage_id not in self._stages:
            self._order.append(stage_id)
        self._stages[stage_id] = entry
        self._write_manifest()
        fault_point("checkpoint.after_commit")
        self.computed += 1
        self._collect_garbage()
        return entry

    def _collect_garbage(self):
        """Unlink solver/Π snapshots no longer referenced by any stage."""
        referenced = set()
        for entry in self._stages.values():
            referenced.add(entry.get("solver"))
            referenced.add(entry.get("pi"))
        for pattern in ("solver-*.npz", "pi-*.npz"):
            for path in self.directory.glob(pattern):
                if path.name not in referenced:
                    try:
                        path.unlink()
                    except OSError:
                        pass

    # -- lifecycle -----------------------------------------------------------

    def describe(self):
        """JSON-safe summary for pipeline reports."""
        return {
            "directory": str(self.directory),
            "stages_committed": len(self._order),
            "loaded": int(self.loaded),
            "computed": int(self.computed),
            "resumed": bool(self.resumed),
        }

    def discard(self):
        """Delete the checkpoint directory (after a successful build)."""
        shutil.rmtree(self.directory, ignore_errors=True)
        self._stages = {}
        self._order = []

    def __repr__(self):
        return (
            f"JobState({str(self.directory)!r}, "
            f"stages={len(self._order)}, resumed={self.resumed})"
        )


def checkpoint_for(root, system, reducer):
    """The :class:`JobState` for (*system*, *reducer*) under *root*.

    *root* is a :class:`~repro.store.ModelStore` (state lives under
    ``<store>/checkpoints/<key>``, keyed exactly like the artifact the
    build will produce) or a plain directory (one job per directory).
    """
    from .store.modelstore import (
        ModelStore,
        artifact_key,
        fingerprint_system,
        reducer_fingerprint,
    )

    system_fp = fingerprint_system(system)
    reducer_fp = reducer_fingerprint(reducer)
    if isinstance(root, ModelStore):
        key = artifact_key(system, reducer)
        directory = root.root / "checkpoints" / key
    else:
        directory = Path(root)
    return JobState(
        directory,
        system_fingerprint=system_fp,
        reducer_fingerprint=reducer_fp,
    )
