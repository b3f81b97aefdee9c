"""ModelStore + ReductionArtifact: fingerprints, hit/miss semantics,
corruption fallback, and the acceptance-criterion round-trip fidelity
(dense n = 200 and sparse n = 1024 with ``toarray`` poisoned).
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.distortion import distortion_sweep
from repro.checkpoint import JobState
from repro.circuits.examples import quadratic_rc_ladder_netlist
from repro.errors import ValidationError
from repro.mor import AssociatedTransformMOR, NORMReducer
from repro.store import (
    ModelStore,
    ReductionArtifact,
    fingerprint_system,
    parse_budget,
    parse_ttl,
    reducer_fingerprint,
)
from repro.systems import QLDAE, StateSpace


def forbid_densify(monkeypatch):
    def boom(self, *args, **kwargs):
        raise AssertionError(
            f"sparse matrix {self.shape} was densified on the fast path"
        )

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", boom)
        monkeypatch.setattr(cls, "todense", boom)


def ladder(n, **kwargs):
    return quadratic_rc_ladder_netlist(n, **kwargs)


class TestFingerprints:
    def test_structural_identity_ignores_name(self):
        a = ladder(20).compile()
        b = ladder(20).compile()
        b.name = "renamed"
        assert fingerprint_system(a) == fingerprint_system(b)

    def test_data_change_changes_fingerprint(self):
        a = ladder(20).compile()
        b = ladder(20, g_quad=0.51).compile()
        assert fingerprint_system(a) != fingerprint_system(b)

    def test_sparse_and_dense_fingerprint_differently(self):
        net = ladder(20)
        assert fingerprint_system(net.compile(sparse=True)) != (
            fingerprint_system(net.compile(sparse=False))
        )

    def test_sparse_fingerprint_without_densify(self, monkeypatch):
        system = ladder(40).compile(sparse=True)
        forbid_densify(monkeypatch)
        assert fingerprint_system(system) == fingerprint_system(system)

    def test_class_distinguishes(self):
        qldae = QLDAE(-np.eye(3), np.ones(3))
        ss = StateSpace(-np.eye(3), np.ones(3))
        assert fingerprint_system(qldae) != fingerprint_system(ss)

    def test_unsupported_type_raises(self):
        with pytest.raises(ValidationError):
            fingerprint_system(object())

    def test_reducer_fingerprint_tracks_config(self):
        base = AssociatedTransformMOR(orders=(4, 2, 0))
        same = AssociatedTransformMOR(orders=(4, 2, 0))
        other_orders = AssociatedTransformMOR(orders=(5, 2, 0))
        other_strategy = AssociatedTransformMOR(
            orders=(4, 2, 0), strategy="decoupled"
        )
        other_point = AssociatedTransformMOR(
            orders=(4, 2, 0), expansion_points=(1.0,)
        )
        assert reducer_fingerprint(base) == reducer_fingerprint(same)
        assert reducer_fingerprint(base) != reducer_fingerprint(other_orders)
        assert reducer_fingerprint(base) != (
            reducer_fingerprint(other_strategy)
        )
        assert reducer_fingerprint(base) != reducer_fingerprint(other_point)


class TestStoreSemantics:
    def test_miss_then_hit(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        system = ladder(24).compile()
        reducer = AssociatedTransformMOR(orders=(4, 2, 0))
        art1, hit1 = store.reduce(system, reducer)
        assert hit1 is False
        art2, hit2 = store.reduce(system, reducer)
        assert hit2 is True
        assert np.array_equal(art2.rom.basis, art1.rom.basis)
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1
        assert store.stats()["entries"] == 1
        key = store.key_for(system, reducer)
        assert key in store
        assert store.keys() == [key]

    def test_fresh_handle_hits_same_directory(self, tmp_path):
        root = tmp_path / "store"
        system = ladder(24).compile()
        reducer = AssociatedTransformMOR(orders=(4, 2, 0))
        _, hit1 = ModelStore(root).reduce(system, reducer)
        _, hit2 = ModelStore(root).reduce(system, reducer)
        assert (hit1, hit2) == (False, True)

    def test_checkpoint_goes_straight_to_the_reducer(self, tmp_path):
        """A reducer that cannot checkpoint fails loudly instead of
        silently building without the checkpoint it was given."""
        store = ModelStore(tmp_path / "store")
        with pytest.raises(TypeError, match="checkpoint"):
            store.reduce(ladder(12).compile(), NORMReducer(orders=(2, 1, 0)),
                         checkpoint=JobState(tmp_path / "ck"))
        assert len(store) == 0

    def test_different_config_is_a_miss(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        system = ladder(24).compile()
        store.reduce(system, AssociatedTransformMOR(orders=(4, 2, 0)))
        _, hit = store.reduce(
            system, AssociatedTransformMOR(orders=(4, 2, 0), tol=1e-8)
        )
        assert hit is False
        assert len(store) == 2

    def test_corruption_falls_back_to_recompute(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        system = ladder(24).compile()
        reducer = AssociatedTransformMOR(orders=(4, 2, 0))
        art, _ = store.reduce(system, reducer)
        key = store.key_for(system, reducer)
        path = store.artifact_path(key)
        path.write_bytes(path.read_bytes()[:64])  # truncate mid-archive
        art2, hit = store.reduce(system, reducer)
        assert hit is False
        assert store.stats()["corrupt"] == 1
        assert np.array_equal(art2.rom.basis, art.rom.basis)
        # quarantined, rewritten, and servable again
        assert path.with_name("artifact.npz.corrupt").exists()
        _, hit3 = store.reduce(system, reducer)
        assert hit3 is True

    def test_tampered_basis_detected_by_content_hash(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        system = ladder(24).compile()
        reducer = AssociatedTransformMOR(orders=(4, 2, 0))
        art, _ = store.reduce(system, reducer)
        key = store.key_for(system, reducer)
        # re-save an artifact whose basis was perturbed but whose
        # recorded hash was not: load must reject it
        art.rom.basis[0, 0] += 1e-3
        from repro.serialize import save_payload

        payload = {
            "__class__": "ReductionArtifact",
            "schema": 1,
            "rom": art.rom.to_dict(),
            "provenance": art.provenance,
        }
        save_payload(store.artifact_path(key), payload)
        assert store.load(key) is None
        assert store.stats()["corrupt"] == 1

    def test_schema_mismatch_is_clean_miss_not_corruption(self, tmp_path):
        """A future-schema entry reads as a miss but is neither counted
        corrupt nor quarantined (another library version can read it)."""
        from repro.serialize import save_payload

        store = ModelStore(tmp_path / "store")
        system = ladder(24).compile()
        reducer = AssociatedTransformMOR(orders=(4, 2, 0))
        art, _ = store.reduce(system, reducer)
        key = store.key_for(system, reducer)
        payload = art.to_dict()
        payload["schema"] = 99
        save_payload(store.artifact_path(key), payload)
        assert store.load(key) is None
        assert store.stats()["corrupt"] == 0
        assert store.artifact_path(key).exists()  # not quarantined
        _, hit = store.reduce(system, reducer)  # recompute-and-overwrite
        assert hit is False
        _, hit2 = store.reduce(system, reducer)
        assert hit2 is True

    def test_meta_json_is_queryable(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        system = ladder(24).compile()
        reducer = AssociatedTransformMOR(orders=(4, 2, 0))
        store.reduce(system, reducer)
        key = store.key_for(system, reducer)
        meta = json.loads(
            (store.artifact_path(key).parent / "meta.json").read_text()
        )
        assert meta["key"] == key
        assert meta["provenance"]["reduced_order"] > 0

    def test_artifact_verify_and_describe(self, tmp_path):
        system = ladder(24).compile()
        reducer = AssociatedTransformMOR(orders=(4, 2, 0))
        art = ReductionArtifact.from_reduction(
            reducer.reduce(system), system=system, reducer=reducer,
            system_fingerprint=fingerprint_system(system),
        )
        assert art.verify()
        desc = art.describe()
        assert desc["system_class"] == "QLDAE"
        assert desc["reducer"]["strategy"] == "coupled"
        path = tmp_path / "art.npz"
        art.save(path)
        back = ReductionArtifact.load(path)
        assert back.provenance["basis_hash"] == (
            art.provenance["basis_hash"]
        )
        assert np.array_equal(back.rom.basis, art.rom.basis)


class TestMaintenance:
    """``store ls`` / ``store gc``: sizes, TTL + size-budget eviction
    keyed on the ``last_access_unix`` stamps, oldest-first ordering."""

    def _fill(self, root, sizes=(12, 16, 20)):
        store = ModelStore(root)
        reducer = AssociatedTransformMOR(orders=(3, 2, 0))
        for n in sizes:
            store.reduce(ladder(n).compile(), reducer)
        return store

    def _stamp(self, store, key, when):
        meta = store.read_meta(key)
        meta["last_access_unix"] = when
        path = store._entry_dir(key) / "meta.json"
        path.write_text(json.dumps(meta))

    def test_parse_ttl(self):
        assert parse_ttl("7d") == 7 * 86400.0
        assert parse_ttl("12h") == 12 * 3600.0
        assert parse_ttl("90s") == 90.0
        assert parse_ttl(90) == 90.0
        assert parse_ttl(None) is None
        assert parse_ttl("0") is None
        with pytest.raises(Exception):
            parse_ttl("sideways")
        with pytest.raises(Exception):
            parse_ttl(-1)

    def test_parse_budget(self):
        assert parse_budget(None) is None
        assert parse_budget("") is None
        assert parse_budget("none") is None
        assert parse_budget("unlimited") is None
        assert parse_budget(0) is None
        assert parse_budget(123) == 123
        assert parse_budget("512m") == 512 * 1024**2
        assert parse_budget("2G") == 2 * 1024**3
        assert parse_budget("1.5K") == 1536
        for bad in ("12Q", "abc", -1, "-2M"):
            with pytest.raises(ValidationError):
                parse_budget(bad)

    def test_ls_reports_every_entry_with_sizes(self, tmp_path):
        store = self._fill(tmp_path / "store")
        report = store.ls()
        assert report["count"] == 3
        assert len(report["entries"]) == 3
        assert all(row["bytes"] > 0 for row in report["entries"])
        assert report["total_bytes"] == sum(
            row["bytes"] for row in report["entries"]
        )
        assert report["total_bytes"] == sum(
            store.entry_bytes(key) for key in store.keys()
        )

    def test_gc_ttl_evicts_only_idle_entries(self, tmp_path):
        import time as _time

        store = self._fill(tmp_path / "store")
        stale = store.recent_keys()[-1]
        self._stamp(store, stale, _time.time() - 10 * 86400)
        report = store.gc(ttl="7d")
        assert report["evicted_count"] == 1
        assert report["evicted"][0]["key"] == stale
        assert report["evicted"][0]["reason"] == "ttl"
        assert stale not in store.keys()
        assert len(store) == 2
        # idle entries survive a generous TTL
        assert store.gc(ttl="365d")["evicted_count"] == 0

    def test_gc_size_budget_evicts_oldest_first(self, tmp_path):
        store = self._fill(tmp_path / "store")
        now = 1_700_000_000.0
        ordered = store.recent_keys()
        for age, key in enumerate(ordered):
            self._stamp(store, key, now - age)
        keep = store.entry_bytes(ordered[0])
        report = store.gc(max_bytes=keep, now=now)
        evicted = [entry["key"] for entry in report["evicted"]]
        # oldest last_access go first; the freshest entry survives
        assert evicted == [ordered[2], ordered[1]]
        assert store.keys() == [ordered[0]]
        assert report["remaining_bytes"] <= keep
        assert store.stats()["evictions"] == 2

    def test_gc_noop_under_budget(self, tmp_path):
        store = self._fill(tmp_path / "store")
        report = store.gc(max_bytes="1g")
        assert report["evicted_count"] == 0
        assert len(store) == 3

    def test_evicted_entry_reads_as_clean_miss(self, tmp_path):
        root = tmp_path / "store"
        store = self._fill(root, sizes=(12,))
        system = ladder(12).compile()
        reducer = AssociatedTransformMOR(orders=(3, 2, 0))
        store.gc(max_bytes=1)
        assert len(store) == 0
        art, hit = ModelStore(root).reduce(system, reducer)
        assert hit is False
        assert art.verify()


class TestRoundTripFidelity:
    """The ISSUE acceptance criterion: stored-and-reloaded artifacts
    reproduce the in-memory ROM's distortion sweep to <= 1e-12."""

    OMEGAS = np.linspace(0.05, 0.5, 5)

    def _sweep(self, system):
        _, hd2, hd3 = distortion_sweep(
            system.to_explicit(), self.OMEGAS, amplitude=0.05
        )
        return hd2, hd3

    def test_dense_n200(self, tmp_path):
        system = ladder(200).compile(sparse=False)
        reducer = AssociatedTransformMOR(orders=(3, 2, 1))
        store = ModelStore(tmp_path / "store")
        art, _ = store.reduce(system, reducer)
        hd2_mem, hd3_mem = self._sweep(art.rom.system)
        reloaded, hit = ModelStore(tmp_path / "store").reduce(
            system, reducer
        )
        assert hit is True
        hd2_disk, hd3_disk = self._sweep(reloaded.rom.system)
        assert np.abs(hd2_disk - hd2_mem).max() <= 1e-12
        assert np.abs(hd3_disk - hd3_mem).max() <= 1e-12

    @pytest.mark.slow
    def test_sparse_n1024_poisoned(self, tmp_path, monkeypatch):
        system = ladder(
            1024, r=10.0, g_leak=1.0, g_quad=0.5, quad_nodes=8
        ).compile(sparse=True)
        reducer = AssociatedTransformMOR(
            orders=(3, 2, 1), strategy="decoupled"
        )
        store_root = tmp_path / "store"
        forbid_densify(monkeypatch)
        art, hit = ModelStore(store_root).reduce(system, reducer)
        assert hit is False
        hd2_mem, hd3_mem = self._sweep(art.rom.system)
        reloaded, hit2 = ModelStore(store_root).reduce(system, reducer)
        assert hit2 is True
        hd2_disk, hd3_disk = self._sweep(reloaded.rom.system)
        assert np.abs(hd2_disk - hd2_mem).max() <= 1e-12
        assert np.abs(hd3_disk - hd3_mem).max() <= 1e-12
