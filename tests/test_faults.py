"""Fault-injection harness + chain failures + durable-write crash tests.

Three layers under test:

* the :mod:`repro.testing.faults` harness itself (spec parsing, hit
  counting, deterministic firing, the closed set of instrumented
  sites),
* how a Krylov-chain failure surfaces from a reduction (the solver's
  own exception, unchanged; a checkpointed build resumes after it),
* the durability discipline (``durable_write`` / ``save_payload``
  survive a SIGKILL at every crash site; the store quarantines torn
  files without losing evidence).

Crash tests run the victim in a subprocess: the harness's ``kill`` kind
SIGKILLs the *current* process, which is exactly the point.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import JobState
from repro.circuits import quadratic_rc_ladder_netlist
from repro.errors import ConvergenceError, FaultInjected, ValidationError
from repro.linalg.operators import FactoredH3Operator
from repro.mor.assoc import AssociatedTransformMOR
from repro.serialize import (
    array_digest,
    durable_write,
    load_payload,
    save_payload,
)
from repro.store import ModelStore
from repro.testing import faults

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_harness():
    """Every test starts and ends with no armed faults."""
    faults.configure(None)
    yield
    faults.configure(None)
    faults.reset()


def _subprocess(code, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.pop("REPRO_FAULT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True,
    )


class TestHarness:
    def test_parse_and_hit_counting(self):
        faults.configure("store.before_meta:3:raise")
        for _ in range(2):
            faults.fault_point("store.before_meta")
        assert faults.hit_counts() == {"store.before_meta": 2}
        with pytest.raises(FaultInjected) as info:
            faults.fault_point("store.before_meta")
        assert info.value.site == "store.before_meta"
        assert info.value.hit == 3
        # past the armed hit the site is inert again
        faults.fault_point("store.before_meta")
        assert faults.hit_counts()["store.before_meta"] == 4

    def test_unarmed_sites_are_free(self):
        faults.configure("store.before_meta:1:raise")
        # never raises, never counted
        faults.fault_point("checkpoint.before_block")
        assert faults.hit_counts() == {}

    def test_multiple_sites(self):
        faults.configure(
            "durable.before_replace:1:raise,durable.after_replace:2:raise"
        )
        with pytest.raises(FaultInjected):
            faults.fault_point("durable.before_replace")
        faults.fault_point("durable.after_replace")
        with pytest.raises(FaultInjected):
            faults.fault_point("durable.after_replace")

    def test_default_kind_is_kill(self):
        # <site>:<n> with no kind simulates power loss (SIGKILL)
        spec = faults.configure("checkpoint.after_commit:1")
        assert spec == {"checkpoint.after_commit": (1, "kill")}

    def test_bad_specs_rejected(self):
        site = "store.before_meta"
        for bad in (site, f"{site}:0", f"{site}:x", f"{site}:1:explode",
                    ":1"):
            with pytest.raises(ValidationError):
                faults.configure(bad)

    def test_unknown_site_rejected(self, monkeypatch):
        # A removed site or a typo must not silently arm nothing.
        for bad in ("chain.solve:3:raise", "store.before_mta:1",
                    "store.before_meta:1,checkpoint.commit:2:raise"):
            with pytest.raises(ValidationError, match="unknown fault site"):
                faults.configure(bad)
        monkeypatch.setenv("REPRO_FAULT", "chain.solve:3:raise")
        faults.reset()
        with pytest.raises(ValidationError, match="unknown fault site"):
            faults.fault_point("store.before_meta")

    def test_sites_match_instrumented_fault_points(self):
        """The known-site set is exactly the ``fault_point("…")``
        literals in the library, so neither can drift from the other."""
        declared = set()
        for path in Path(REPO_SRC, "repro").rglob("*.py"):
            declared.update(re.findall(
                r"""fault_point\(\s*["']([^"']+)["']\s*\)""",
                path.read_text(encoding="utf-8"),
            ))
        assert declared == set(faults.SITES)

    def test_env_var_is_lazy(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "serialize.before_replace:1:raise")
        faults.reset()
        with pytest.raises(FaultInjected):
            faults.fault_point("serialize.before_replace")

    def test_kill_kind_sigkills_subprocess(self):
        result = _subprocess(
            "from repro.testing import faults\n"
            "faults.configure('checkpoint.before_block:1:kill')\n"
            "faults.fault_point('checkpoint.before_block')\n"
            "print('unreachable')\n"
        )
        assert result.returncode == -9
        assert "unreachable" not in result.stdout


class TestDurableWrites:
    def test_durable_write_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        durable_write(path, '{"ok": true}\n')
        assert json.loads(path.read_text()) == {"ok": True}

    def test_no_temp_litter_on_fault(self, tmp_path):
        path = tmp_path / "out.txt"
        faults.configure("durable.before_replace:1:raise")
        with pytest.raises(FaultInjected):
            durable_write(path, "data")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "site", ["durable.before_replace", "durable.after_replace"]
    )
    def test_kill_never_tears_existing_file(self, tmp_path, site):
        """SIGKILL around the rename: old or new content, never torn."""
        path = tmp_path / "state.json"
        path.write_text("old")
        result = _subprocess(
            "from repro.serialize import durable_write\n"
            f"durable_write({str(path)!r}, 'new')\n",
            env_extra={"REPRO_FAULT": f"{site}:1:kill"},
        )
        assert result.returncode == -9
        content = path.read_text()
        if site == "durable.before_replace":
            assert content == "old"
        else:
            assert content == "new"

    @pytest.mark.parametrize(
        "site", ["serialize.before_replace", "serialize.after_replace"]
    )
    def test_kill_never_tears_payload(self, tmp_path, site):
        path = tmp_path / "payload.npz"
        save_payload(path, {"x": np.arange(3.0)})
        result = _subprocess(
            "import numpy as np\n"
            "from repro.serialize import save_payload\n"
            f"save_payload({str(path)!r}, {{'x': np.arange(5.0)}})\n",
            env_extra={"REPRO_FAULT": f"{site}:1:kill"},
        )
        assert result.returncode == -9
        tree = load_payload(path)  # must parse whichever version won
        expected = 3.0 if site == "serialize.before_replace" else 5.0
        assert tree["x"].shape == (expected,)


def _tiny_system():
    net = quadratic_rc_ladder_netlist(
        12, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=3
    )
    return net.compile(sparse=True)


class TestChainFailure:
    def test_failure_surfaces_unchanged_and_resumes(self, tmp_path,
                                                    monkeypatch):
        """A chain's exception reaches the caller as the solver raised
        it — class, message and attributes — and the chains committed
        before it still resume to the cold basis."""
        reducer = AssociatedTransformMOR(
            orders=(3, 2, 1), strategy="decoupled"
        )
        cold = array_digest(reducer.reduce(_tiny_system()).basis)

        def stalled(self, shift, rhs):
            raise ConvergenceError("boom", iterations=3, residual=1.0)

        ckdir = tmp_path / "ck"
        with monkeypatch.context() as patch:
            # The A3(H3) chain runs after H1 and both A2(H2) chains.
            patch.setattr(FactoredH3Operator, "solve_shifted", stalled)
            with pytest.raises(ConvergenceError) as info:
                reducer.reduce(_tiny_system(), checkpoint=JobState(ckdir))
        exc = info.value
        assert type(exc) is ConvergenceError
        assert str(exc) == "boom"
        assert (exc.iterations, exc.residual) == (3, 1.0)

        rom = reducer.reduce(_tiny_system(), checkpoint=JobState(ckdir))
        assert rom.details["checkpoint"]["loaded"] >= 1
        assert array_digest(rom.basis) == cold


class TestStoreFaultTolerance:
    def test_quarantine_collision_gets_unique_suffix(self, tmp_path):
        store = ModelStore(tmp_path)
        system = _tiny_system()
        reducer = AssociatedTransformMOR(orders=(2, 1, 0))
        _, hit = store.reduce(system, reducer)
        assert not hit
        path = store.artifact_path(store.key_for(system, reducer))
        for _ in range(2):
            path.write_bytes(b"garbage")
            assert store.load(store.key_for(system, reducer)) is None
            store.reduce(system, reducer)
        assert path.with_name("artifact.npz.corrupt").exists()
        assert path.with_name("artifact.npz.corrupt.1").exists()
        stats = store.stats()
        assert stats["corrupt"] == 2
        assert stats["quarantine_collisions"] == 1

    def test_torn_truncation_quarantined_and_recomputed(self, tmp_path):
        store = ModelStore(tmp_path)
        system = _tiny_system()
        reducer = AssociatedTransformMOR(orders=(2, 1, 0))
        artifact, _ = store.reduce(system, reducer)
        path = store.artifact_path(store.key_for(system, reducer))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # torn write
        again, hit = store.reduce(system, reducer)
        assert not hit  # treated as a miss, recomputed
        assert np.array_equal(again.rom.basis, artifact.rom.basis)
        assert store.stats()["corrupt"] == 1
        assert path.exists()  # rewritten entry
        assert path.with_name("artifact.npz.corrupt").exists()

    def test_verify_reports_and_quarantines(self, tmp_path):
        store = ModelStore(tmp_path)
        system = _tiny_system()
        store.reduce(system, AssociatedTransformMOR(orders=(2, 1, 0)))
        store.reduce(system, AssociatedTransformMOR(orders=(3, 1, 0)))
        report = store.verify()
        assert report == {
            "checked": 2, "ok": 2, "corrupt": 0,
            "entries": report["entries"],
        }
        key = store.keys()[0]
        store.artifact_path(key).write_bytes(b"junk")
        report = store.verify()
        assert report["checked"] == 2
        assert report["corrupt"] == 1
        bad = [e for e in report["entries"] if not e["ok"]]
        assert bad[0]["key"] == key
        assert not store.artifact_path(key).exists()  # quarantined

    def test_verify_without_quarantine_leaves_files(self, tmp_path):
        store = ModelStore(tmp_path)
        system = _tiny_system()
        store.reduce(system, AssociatedTransformMOR(orders=(2, 1, 0)))
        key = store.keys()[0]
        store.artifact_path(key).write_bytes(b"junk")
        report = store.verify(quarantine=False)
        assert report["corrupt"] == 1
        assert store.artifact_path(key).exists()

    def test_kill_between_artifact_and_meta_is_recoverable(self, tmp_path):
        """SIGKILL after artifact.npz but before meta.json: the entry
        still loads (artifact is self-contained) and the next store()
        completes the metadata."""
        script = (
            "from repro.store import ModelStore\n"
            "from repro.mor.assoc import AssociatedTransformMOR\n"
            "from repro.circuits import quadratic_rc_ladder_netlist\n"
            "net = quadratic_rc_ladder_netlist(12, r=10.0, g_leak=1.0, "
            "g_quad=0.5, quad_nodes=3)\n"
            f"store = ModelStore({str(tmp_path)!r})\n"
            "store.reduce(net.compile(sparse=True), "
            "AssociatedTransformMOR(orders=(2, 1, 0)))\n"
        )
        result = _subprocess(
            script, env_extra={"REPRO_FAULT": "store.before_meta:1:kill"}
        )
        assert result.returncode == -9
        store = ModelStore(tmp_path)
        system = _tiny_system()
        reducer = AssociatedTransformMOR(orders=(2, 1, 0))
        key = store.key_for(system, reducer)
        assert store.artifact_path(key).exists()
        assert not (store._entry_dir(key) / "meta.json").exists()
        artifact, hit = store.reduce(system, reducer)
        assert hit  # the orphaned artifact itself is valid
        assert artifact.rom.basis.shape[0] == system.n_states
