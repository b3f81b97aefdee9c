"""Serialization round-trips: payload codec, systems, ROMs.

The acceptance bar for the artifact layer is *fidelity*: a system or
ROM that goes dense↔disk↔dense or CSR↔disk↔CSR must answer simulation
and distortion queries identically (≤ 1e-12) after reload, sparse
storage must stay sparse (enforced with a poisoned ``toarray``), and
wrong-class / corrupt payloads must fail loudly.
"""

import enum
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.distortion import distortion_sweep
from repro.circuits.examples import quadratic_rc_ladder_netlist
from repro.errors import ValidationError
from repro.mor import AssociatedTransformMOR, ReducedOrderModel
from repro.mor.krylov import reduce_lti
from repro.serialize import (
    array_digest,
    json_safe,
    load_payload,
    save_payload,
)
from repro.simulation import simulate, step_source
from repro.systems import (
    CubicODE,
    PolynomialODE,
    QLDAE,
    StateSpace,
    system_from_dict,
)


def forbid_densify(monkeypatch):
    """Poison sparse→dense conversion (mirrors test_sparse_path)."""

    def boom(self, *args, **kwargs):
        raise AssertionError(
            f"sparse matrix {self.shape} was densified on the fast path"
        )

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", boom)
        monkeypatch.setattr(cls, "todense", boom)


class TestPayloadCodec:
    def test_scalar_and_structure_round_trip(self, tmp_path):
        tree = {
            "none": None,
            "flag": True,
            "count": 3,
            "x": 1.5,
            "z": 1.0 + 2.0j,
            "label": "hello",
            "nested": {"list": [1, "two", {"deep": 3.0}]},
        }
        path = tmp_path / "payload.npz"
        save_payload(path, tree)
        back = load_payload(path)
        assert back == tree

    def test_array_and_csr_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((4, 6))
        cplx = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        csr = sp.random(8, 8, density=0.3, random_state=3, format="csr")
        path = tmp_path / "payload.npz"
        save_payload(path, {"dense": dense, "cplx": cplx, "csr": csr})
        back = load_payload(path)
        assert np.array_equal(back["dense"], dense)
        assert np.array_equal(back["cplx"], cplx)
        assert sp.issparse(back["csr"])
        assert (back["csr"] != csr).nnz == 0

    def test_tuples_normalize_to_lists(self, tmp_path):
        path = tmp_path / "payload.npz"
        save_payload(path, {"orders": (6, 3, 0)})
        assert load_payload(path)["orders"] == [6, 3, 0]

    def test_unserializable_object_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            save_payload(tmp_path / "bad.npz", {"obj": object()})

    def test_reserved_key_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            save_payload(tmp_path / "bad.npz", {"__ndarray__": 1})

    def test_non_string_key_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            save_payload(tmp_path / "bad.npz", {3: "x"})

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "payload.npz"
        save_payload(path, {"x": 1.0})
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(Exception):
            load_payload(path)

    def test_atomic_write_leaves_no_temp_droppings(self, tmp_path):
        path = tmp_path / "payload.npz"
        save_payload(path, {"x": np.arange(5)})
        save_payload(path, {"x": np.arange(6)})  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["payload.npz"]

    def test_json_safe_degrades_unknown_to_str(self):
        out = json_safe({"a": np.float64(2.0), "b": object(),
                         "c": (1, np.int64(2)), "z": 1j})
        assert out["a"] == 2.0 and isinstance(out["a"], float)
        assert isinstance(out["b"], str)
        assert out["c"] == [1, 2]
        assert out["z"] == 1j

    def test_json_safe_matches_the_isinstance_walk(self):
        for value in JSON_SAFE_CORPUS:
            assert repr(json_safe(value)) == repr(_isinstance_json_safe(value))

    def test_json_safe_is_a_fixed_point(self):
        for value in JSON_SAFE_CORPUS:
            once = json_safe(value)
            assert repr(json_safe(once)) == repr(once)

    def test_array_digest_distinguishes_pattern_and_data(self):
        a = sp.csr_matrix(np.diag([1.0, 2.0, 0.0]))
        b = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))  # same data, moved
        c = sp.csr_matrix(np.diag([1.0, 3.0, 0.0]))  # same pattern
        assert array_digest(a) != array_digest(b)
        assert array_digest(a) != array_digest(c)
        assert array_digest(a) == array_digest(a.copy())


def _isinstance_json_safe(value):
    """Test-local copy of ``json_safe`` as a plain ``isinstance`` walk (the
    implementation before the exact-type dispatch)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, (complex, np.complexfloating)):
        return complex(value)
    if isinstance(value, np.ndarray):
        return _isinstance_json_safe(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_isinstance_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _isinstance_json_safe(val) for key, val in value.items()
        }
    return str(value)


class _Level(enum.IntEnum):
    HIGH = 3


class _Float(float):
    pass


class _Array(np.ndarray):
    pass


_NON_FINITE = np.array([1.0, np.nan, np.inf, -np.inf])

JSON_SAFE_CORPUS = [
    None, True, False, "text", 0, -7, 2**70, 1.5, float("nan"),
    float("inf"), float("-inf"), -0.0, 1 + 2j, complex(np.nan, 1.0),
    _Level.HIGH, _Float(2.5), _Float("inf"),
    np.int8(-3), np.int64(9), np.uint8(7), np.float16(0.1),
    np.float32(0.1), np.float64(np.inf), np.longdouble(0.1),
    np.bool_(True), np.complex64(1 - 1j), np.complex128(np.nan),
    _NON_FINITE, _NON_FINITE.reshape(2, 2), _NON_FINITE.astype(np.float32),
    np.linspace(0.0, 1.0, 5), np.arange(6).reshape(2, 3),
    np.arange(4, dtype=np.uint16), np.array([True, False]),
    np.array([1 + 1j, np.nan + 0j, complex(0, np.inf)]),
    np.array([0.5, 1.5], dtype=np.float16), np.array([0.1], np.longdouble),
    np.array([1 + 2j], dtype=np.clongdouble),
    np.array(2.5), np.array(np.nan), np.array(-np.inf), np.array(3),
    np.array(True), np.array(1 + 2j), np.zeros(0), np.zeros((0, 3)),
    np.array(["a", "b"]), np.array([1, "x", None], dtype=object),
    np.array(["2024-01-01"], dtype="datetime64[D]"),
    np.array([1.0, 2.0]).view(_Array), np.ma.masked_array([1.0, 2.0], [0, 1]),
    [1.0, float("nan"), [np.float64(-np.inf), (np.int32(2), 3)]],
    (1, (2.0, np.nan), []), {"a": 1, 2: np.array([np.inf]), None: (1,)},
    OrderedDict([("b", np.float32(np.nan)), ("a", [np.array(1.0)])]),
    {"nested": {"deep": [{"x": np.arange(3.0)}, OrderedDict(y=1j)]}},
    sp.csr_matrix(np.eye(2)), Path("some/where"), {1, 2}, object,
]


class TestStateSpaceRoundTrip:
    def test_dense(self, tmp_path):
        rng = np.random.default_rng(11)
        ss = StateSpace(
            -np.eye(4) + 0.2 * rng.standard_normal((4, 4)),
            rng.standard_normal((4, 2)),
            rng.standard_normal((1, 4)),
            rng.standard_normal((1, 2)),
        )
        path = tmp_path / "ss.npz"
        ss.save(path)
        back = StateSpace.load(path)
        for field in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(back, field), getattr(ss, field))
        s = 0.3 + 1.1j
        assert np.allclose(back.transfer(s), ss.transfer(s), atol=1e-14)

    def test_sparse_a_stays_sparse(self, tmp_path):
        a = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
        ss = StateSpace(a, np.ones(3))
        path = tmp_path / "ss.npz"
        ss.save(path)
        back = StateSpace.load(path)
        assert sp.issparse(back.a)
        assert (back.a != a).nnz == 0

    def test_wrong_class_payload_rejected(self, tmp_path):
        path = tmp_path / "sys.npz"
        QLDAE(-np.eye(2), np.ones(2)).save(path)
        with pytest.raises(ValidationError):
            StateSpace.load(path)


class TestPolynomialRoundTrip:
    def test_dense_qldae_bitwise(self, tmp_path, rng):
        n = 6
        g1 = -1.5 * np.eye(n) + 0.2 * rng.standard_normal((n, n))
        g2 = 0.2 * rng.standard_normal((n, n * n))
        d1 = 0.25 * rng.standard_normal((n, n))
        mass = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        system = QLDAE(g1, rng.standard_normal(n), g2=g2, d1=d1,
                       mass=mass, output=np.eye(n)[0], name="bit")
        path = tmp_path / "sys.npz"
        system.save(path)
        back = PolynomialODE.load(path)
        assert type(back) is QLDAE
        assert back.name == "bit"
        assert np.array_equal(back.g1, system.g1)
        assert np.array_equal(back.mass, system.mass)
        assert np.array_equal(back.b, system.b)
        assert np.array_equal(back.output, system.output)
        assert (back.g2 != system.g2).nnz == 0
        assert np.array_equal(back.d1[0], system.d1[0])

    def test_cubic_round_trip(self, tmp_path, small_cubic):
        path = tmp_path / "cubic.npz"
        small_cubic.save(path)
        back = PolynomialODE.load(path)
        assert type(back) is CubicODE
        assert (back.g3 != small_cubic.g3).nnz == 0

    def test_class_mismatch_guard(self, tmp_path, small_qldae):
        path = tmp_path / "sys.npz"
        small_qldae.save(path)
        with pytest.raises(ValidationError):
            CubicODE.load(path)
        # the base class accepts any member of the hierarchy
        assert type(PolynomialODE.load(path)) is QLDAE

    def test_system_from_dict_dispatch(self, small_qldae, small_cubic):
        assert type(system_from_dict(small_qldae.to_dict())) is QLDAE
        assert type(system_from_dict(small_cubic.to_dict())) is CubicODE
        ss = StateSpace(-np.eye(2), np.ones(2))
        assert type(system_from_dict(ss.to_dict())) is StateSpace
        with pytest.raises(ValidationError):
            system_from_dict({"__class__": "Mystery"})

    def test_dense_disk_dense_simulate_parity(self, tmp_path):
        system = quadratic_rc_ladder_netlist(30, c=0.5).compile(sparse=False)
        path = tmp_path / "sys.npz"
        system.save(path)
        back = PolynomialODE.load(path)
        u = step_source(0.2)
        ref = simulate(system, u, t_end=2.0, dt=0.02)
        got = simulate(back, u, t_end=2.0, dt=0.02)
        assert np.abs(got.states - ref.states).max() <= 1e-12

    def test_sparse_mass_round_trips_sparse(self, tmp_path):
        system = quadratic_rc_ladder_netlist(64, c=0.5).compile(sparse=True)
        path = tmp_path / "sys.npz"
        system.save(path)
        back = PolynomialODE.load(path)
        assert back.is_sparse
        assert sp.issparse(back.mass)
        assert (back.mass != system.mass).nnz == 0
        assert (back.g1 != system.g1).nnz == 0

    def test_csr_disk_csr_stays_sparse_and_matches(
        self, tmp_path, monkeypatch
    ):
        # Unit capacitors: identity mass is dropped at assembly, so the
        # whole save → load → sweep cycle runs on the matrix-free fast
        # path (to_explicit is the identity) — poisoning toarray proves
        # no step densifies.
        system = quadratic_rc_ladder_netlist(64).compile(sparse=True)
        assert system.mass is None
        path = tmp_path / "sys.npz"
        omegas = np.array([0.1, 0.3])
        forbid_densify(monkeypatch)
        system.save(path)  # saving must not densify either
        back = PolynomialODE.load(path)
        assert back.is_sparse
        _, hd2_ref, hd3_ref = distortion_sweep(
            system.to_explicit(), omegas, amplitude=0.1
        )
        _, hd2, hd3 = distortion_sweep(
            back.to_explicit(), omegas, amplitude=0.1
        )
        assert np.abs(hd2 - hd2_ref).max() <= 1e-12
        assert np.abs(hd3 - hd3_ref).max() <= 1e-12


class TestRomRoundTrip:
    def test_polynomial_rom(self, tmp_path):
        system = quadratic_rc_ladder_netlist(30).compile()
        rom = AssociatedTransformMOR(orders=(5, 2, 0)).reduce(system)
        path = tmp_path / "rom.npz"
        rom.save(path)
        back = ReducedOrderModel.load(path)
        assert np.array_equal(back.basis, rom.basis)
        assert back.method == rom.method
        assert back.orders == rom.orders
        assert back.expansion_points == rom.expansion_points
        assert back.build_time == rom.build_time
        assert back.details["deflated_to"] == rom.details["deflated_to"]
        u = step_source(0.2)
        ref = simulate(rom.system, u, t_end=2.0, dt=0.02)
        got = simulate(back.system, u, t_end=2.0, dt=0.02)
        assert np.abs(got.states - ref.states).max() <= 1e-12

    def test_lti_rom(self, tmp_path):
        rng = np.random.default_rng(5)
        ss = StateSpace(
            -2.0 * np.eye(8) + 0.3 * rng.standard_normal((8, 8)),
            rng.standard_normal(8),
        )
        rom = reduce_lti(ss, count=3)
        path = tmp_path / "rom.npz"
        rom.save(path)
        back = ReducedOrderModel.load(path)
        assert isinstance(back.system, StateSpace)
        assert np.array_equal(back.basis, rom.basis)
        s = 0.2 + 0.7j
        assert np.allclose(
            back.system.transfer(s), rom.system.transfer(s), atol=1e-14
        )
