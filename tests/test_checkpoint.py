"""Checkpoint/resume: bit-identical ROMs across crashes, plus the
pipeline/CLI wiring.

The load-bearing property is **bit identity**: a reduction that crashes
at any instrumented site and resumes from its checkpoint must produce
byte-for-byte the same basis as an uninterrupted cold run (the solver
snapshot restores the exact floating-point environment — shared
extended-Krylov basis, fallback-shift cache, factored Π).  Each run
uses a *fresh* system object: the associated workspace is memoized on
the system, so reuse would hide state leaks.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import JobState, checkpoint_for
from repro.circuits import quadratic_rc_ladder_netlist
from repro.errors import FaultInjected, ValidationError
from repro.mor.assoc import AssociatedTransformMOR
from repro.pipeline import run_pipeline
from repro.serialize import array_digest, load_payload, save_payload
from repro.store import ModelStore
from repro.testing import faults

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_state():
    faults.configure(None)
    yield
    faults.configure(None)
    faults.reset()


def fresh_system(n=24):
    """Sep-healthy sparse quadratic ladder (new object every call)."""
    net = quadratic_rc_ladder_netlist(
        n, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=4
    )
    return net.compile(sparse=True)


def make_reducer():
    return AssociatedTransformMOR(orders=(3, 2, 1), strategy="decoupled")


@pytest.fixture(scope="module")
def cold_digest():
    """Basis digest of an uninterrupted (3,2,1) decoupled reduction."""
    rom = make_reducer().reduce(fresh_system())
    return array_digest(rom.basis)


class TestJobState:
    def test_roundtrip(self, tmp_path):
        state = JobState(tmp_path / "ck")
        payload = {"chains": [[np.arange(4.0), np.ones(4)]]}
        state.commit_stage("s0", payload, solver_state={"u": np.eye(2)})
        state.commit_stage("s1", {"chains": []})
        reopened = JobState(tmp_path / "ck")
        assert reopened.resumed
        assert reopened.stage_ids() == ["s0", "s1"]
        assert reopened.has_stage("s0")
        assert not reopened.has_stage("missing")
        loaded = reopened.load_stage("s0")
        assert np.array_equal(loaded["chains"][0][0], np.arange(4.0))
        assert reopened.loaded == 1
        # s1 carried no snapshot: the s0 reference is carried forward
        solver = reopened.solver_state()
        assert np.array_equal(solver["u"], np.eye(2))

    def test_load_uncommitted_stage_raises(self, tmp_path):
        state = JobState(tmp_path)
        with pytest.raises(ValidationError):
            state.load_stage("nope")

    def test_recommit_replaces_in_place(self, tmp_path):
        state = JobState(tmp_path)
        state.commit_stage("s", {"v": np.zeros(2)})
        state.commit_stage("s", {"v": np.ones(2)})
        assert state.stage_ids() == ["s"]
        assert np.array_equal(JobState(tmp_path).load_stage("s")["v"],
                              np.ones(2))

    def test_fingerprint_mismatch_wipes(self, tmp_path):
        state = JobState(tmp_path, system_fingerprint="aaa",
                         reducer_fingerprint="rrr")
        state.commit_stage("s", {"v": np.ones(1)})
        other = JobState(tmp_path, system_fingerprint="bbb",
                         reducer_fingerprint="rrr")
        assert not other.resumed
        assert len(other) == 0
        assert not (tmp_path / "blocks").exists()

    def test_garbled_manifest_wipes(self, tmp_path):
        state = JobState(tmp_path)
        state.commit_stage("s", {"v": np.ones(1)})
        state.manifest_path.write_text("{ torn json")
        assert not JobState(tmp_path).resumed

    def test_solver_garbage_collection(self, tmp_path):
        state = JobState(tmp_path)
        state.commit_stage("a", {"v": np.ones(1)},
                           solver_state={"x": np.ones(1)})
        state.commit_stage("a", {"v": np.ones(1)},
                           solver_state={"x": np.ones(2)})
        snapshots = list(Path(tmp_path).glob("solver-*.npz"))
        assert len(snapshots) == 1  # the superseded snapshot was reaped

    def test_checkpoint_for_store_keying(self, tmp_path):
        store = ModelStore(tmp_path)
        system = fresh_system(12)
        reducer = make_reducer()
        state = checkpoint_for(store, system, reducer)
        key = store.key_for(system, reducer)
        assert state.directory == store.root / "checkpoints" / key
        assert state.system_fingerprint is not None
        # a different reducer config under the same directory is wiped
        state.commit_stage("s", {"v": np.ones(1)})
        other_dir = checkpoint_for(
            tmp_path / "checkpoints" / key, system,
            AssociatedTransformMOR(orders=(2, 1, 0)),
        )
        assert not other_dir.resumed


class TestBitIdenticalResume:
    @pytest.mark.parametrize("site,hit", [
        ("checkpoint.before_block", 1),
        ("checkpoint.before_commit", 2),
        ("checkpoint.after_commit", 3),
    ])
    def test_crash_resume_matches_cold_run(self, tmp_path, cold_digest,
                                           site, hit):
        ckdir = tmp_path / "ck"
        faults.configure(f"{site}:{hit}:raise")
        with pytest.raises(FaultInjected):
            make_reducer().reduce(fresh_system(), checkpoint=JobState(ckdir))
        faults.configure(None)
        resumed = JobState(ckdir)
        rom = make_reducer().reduce(fresh_system(), checkpoint=resumed)
        assert array_digest(rom.basis) == cold_digest
        info = rom.details["checkpoint"]
        assert info["loaded"] + info["computed"] >= info["stages_committed"]

    def test_full_load_resume_computes_nothing(self, tmp_path, cold_digest):
        ckdir = tmp_path / "ck"
        make_reducer().reduce(fresh_system(), checkpoint=JobState(ckdir))
        rom = make_reducer().reduce(fresh_system(),
                                    checkpoint=JobState(ckdir))
        info = rom.details["checkpoint"]
        assert info["computed"] == 0
        assert info["loaded"] == info["stages_committed"] > 0
        assert info["resumed"]
        assert array_digest(rom.basis) == cold_digest

    def test_sigkill_resume_matches_cold_run(self, tmp_path, cold_digest):
        """The acceptance path: SIGKILL mid-build, resume bit-identically.

        H1, the two eq.-(18) subsystems of A2(H2) and A3(H3) run one
        chain each, and each chain commits its own stage.  The kill
        lands after the second commit, between the two A2(H2) chains:
        the resume loads both committed chains and computes only the
        two that were never committed."""
        ckdir = tmp_path / "ck"
        script = (
            "from repro.checkpoint import JobState\n"
            "from repro.circuits import quadratic_rc_ladder_netlist\n"
            "from repro.mor.assoc import AssociatedTransformMOR\n"
            "net = quadratic_rc_ladder_netlist(24, r=10.0, g_leak=1.0,"
            " g_quad=0.5, quad_nodes=4)\n"
            "mor = AssociatedTransformMOR(orders=(3, 2, 1),"
            " strategy='decoupled')\n"
            f"mor.reduce(net.compile(sparse=True),"
            f" checkpoint=JobState({str(ckdir)!r}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env["REPRO_FAULT"] = "checkpoint.after_commit:2:kill"
        result = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True,
        )
        assert result.returncode == -9, result.stderr
        resumed = JobState(ckdir)
        assert resumed.resumed and len(resumed) == 2
        rom = make_reducer().reduce(fresh_system(), checkpoint=resumed)
        assert array_digest(rom.basis) == cold_digest
        info = rom.details["checkpoint"]
        assert (info["loaded"], info["computed"]) == (2, 2)
        assert [sid.split(":")[1] for sid in resumed.stage_ids()] == [
            "H1@0.0", "H2-sub0@0.0", "H2-sub1@0.0", "H3@0.0",
        ]

    def test_solver_snapshot_without_transpose_side(self, tmp_path,
                                                    cold_digest):
        """The shared basis keeps no ``G1ᵀU``, so its snapshot holds no
        ``atu``; a snapshot that still carries one (as older checkpoints
        do) is resumed from all the same, to the cold run's basis."""
        ckdir = tmp_path / "ck"
        faults.configure("checkpoint.after_commit:3:raise")
        with pytest.raises(FaultInjected):
            make_reducer().reduce(fresh_system(), checkpoint=JobState(ckdir))
        faults.configure(None)
        solver_paths = list(ckdir.glob("solver-*.npz"))
        assert solver_paths
        g1 = fresh_system().to_explicit().g1
        for path in solver_paths:
            payload = load_payload(path)
            lowrank = payload["lowrank"]
            assert "atu" not in lowrank
            lowrank["atu"] = g1.T @ lowrank["u"]
            save_payload(path, payload, compress=False)
        rom = make_reducer().reduce(fresh_system(),
                                    checkpoint=JobState(ckdir))
        info = rom.details["checkpoint"]
        assert (info["loaded"], info["computed"]) == (3, 1)
        assert array_digest(rom.basis) == cold_digest

    def test_checkpointed_build_itself_is_bit_identical(self, tmp_path,
                                                        cold_digest):
        """Checkpointing must not perturb the numbers even without a crash."""
        rom = make_reducer().reduce(
            fresh_system(), checkpoint=JobState(tmp_path / "ck")
        )
        assert array_digest(rom.basis) == cold_digest


class TestPipelineWiring:
    def _spec(self):
        return {
            "generator": "quadratic_rc_ladder_netlist",
            "args": {"n_nodes": 24, "r": 10.0, "g_leak": 1.0,
                     "g_quad": 0.5, "quad_nodes": 4},
            "compile": {"sparse": True},
        }

    _REDUCE = {"orders": [3, 2, 1], "strategy": "decoupled"}

    def test_checkpoint_dir_reported_and_discarded(self, tmp_path,
                                                   cold_digest):
        ckdir = tmp_path / "ck"
        result = run_pipeline(self._spec(), reduce=self._REDUCE,
                              checkpoint=ckdir)
        info = result.report()["reduction"]["checkpoint"]
        assert info["stages_committed"] > 0
        assert array_digest(result.rom.basis) == cold_digest
        assert not ckdir.exists()  # discarded after success

    def test_checkpoint_true_needs_store(self):
        with pytest.raises(ValidationError, match="store"):
            run_pipeline(self._spec(), reduce=self._REDUCE, checkpoint=True)

    def test_checkpoint_true_keys_under_store(self, tmp_path):
        result = run_pipeline(self._spec(), reduce=self._REDUCE,
                              store=tmp_path / "models", checkpoint=True)
        info = result.report()["reduction"]["checkpoint"]
        assert str(tmp_path / "models" / "checkpoints") in info["directory"]
        assert result.store_hit is False

    def test_resume_without_state_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="no committed"):
            run_pipeline(self._spec(), reduce=self._REDUCE,
                         checkpoint=tmp_path / "empty", resume=True)
        with pytest.raises(ValidationError, match="needs a checkpoint"):
            run_pipeline(self._spec(), reduce=self._REDUCE, resume=True)

    def test_checkpoint_without_reduce_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="reduce"):
            run_pipeline(self._spec(), checkpoint=tmp_path / "ck")

    def test_crashed_pipeline_resumes(self, tmp_path, cold_digest):
        ckdir = tmp_path / "ck"
        faults.configure("checkpoint.before_commit:2:raise")
        with pytest.raises(FaultInjected):
            run_pipeline(self._spec(), reduce=self._REDUCE, checkpoint=ckdir)
        faults.configure(None)
        assert ckdir.exists()  # kept on failure
        result = run_pipeline(self._spec(), reduce=self._REDUCE,
                              checkpoint=ckdir, resume=True)
        info = result.report()["reduction"]["checkpoint"]
        assert info["resumed"] and info["loaded"] >= 1
        assert array_digest(result.rom.basis) == cold_digest

    @pytest.mark.parametrize("pattern", ["blocks/*.npz", "solver-*.npz"])
    def test_damaged_checkpoint_is_discarded(self, tmp_path, cold_digest,
                                             pattern):
        """A truncated block or last-stage solver snapshot discards the
        checkpoint when it is opened, as a garbled manifest does: resume
        refuses with its ValidationError, and a plain checkpointed run
        starts fresh and matches the cold run."""
        ckdir = tmp_path / "ck"
        faults.configure("checkpoint.after_commit:1:raise")
        with pytest.raises(FaultInjected):
            run_pipeline(self._spec(), reduce=self._REDUCE, checkpoint=ckdir)
        faults.configure(None)
        (damaged,) = ckdir.glob(pattern)
        with open(damaged, "r+b") as handle:
            handle.truncate(64)
        shutil.copytree(ckdir, tmp_path / "copy")
        with pytest.raises(ValidationError, match="no committed"):
            run_pipeline(self._spec(), reduce=self._REDUCE,
                         checkpoint=tmp_path / "copy", resume=True)
        result = run_pipeline(self._spec(), reduce=self._REDUCE,
                              checkpoint=ckdir)
        info = result.report()["reduction"]["checkpoint"]
        assert not info["resumed"] and info["loaded"] == 0
        assert array_digest(result.rom.basis) == cold_digest

    def test_schema2_checkpoint_is_discarded(self, tmp_path, cold_digest):
        """A schema-2 checkpoint, whose Π snapshot holds the ``(n, r²)``
        ``left`` factor instead of ``V``/``Y``, is discarded when opened
        rather than resumed into a ``KeyError``, and a reduce through
        its directory still reaches the cold run's basis."""
        ckdir = tmp_path / "ck"
        faults.configure("checkpoint.after_commit:1:raise")
        with pytest.raises(FaultInjected):
            make_reducer().reduce(fresh_system(), checkpoint=JobState(ckdir))
        faults.configure(None)
        (pi_path,) = ckdir.glob("pi-*.npz")
        payload = load_payload(pi_path)
        pi = payload["pi"]
        if "left" not in pi:
            pi["left"] = pi.pop("v") @ pi.pop("y")
        save_payload(pi_path, payload, compress=False)
        manifest = json.loads(
            (ckdir / "manifest.json").read_text(encoding="utf-8")
        )
        manifest["schema"] = 2
        (ckdir / "manifest.json").write_text(
            json.dumps(manifest), encoding="utf-8"
        )
        state = JobState(ckdir)
        assert not state.resumed
        assert list(ckdir.iterdir()) == []
        rom = make_reducer().reduce(fresh_system(), checkpoint=state)
        assert array_digest(rom.basis) == cold_digest
