"""Parametric multi-corner machinery: parameters, grids, reuse tiers.

Covers the cross-corner reuse contracts of :func:`repro.pipeline.
run_parametric`:

* parameter annotations survive the ``Netlist.to_dict``/``from_dict``
  round trip (typed, validated);
* corners with the same CSR pattern but different data get *distinct*
  store keys (value changes must never alias in the store);
* the symbolic sparse-LU analysis is shared across same-pattern corner
  factories (asserted through ``sparse_lu_stats`` counters);
* the interpolation tier's probe check rejects out-of-tolerance
  candidates and the fallback reduction matches a cold one to 1e-9.
"""

import json

import numpy as np
import pytest

from repro.analysis.distortion import distortion_sweep
from repro.circuits import Netlist, quadratic_rc_ladder_netlist
from repro.circuits.mna import structural_digest
from repro.errors import ValidationError
from repro.linalg import lu as lu_mod
from repro.linalg.resolvent import ResolventFactory
from repro.params import (
    MonteCarloSampler,
    Parameter,
    ParameterGrid,
    check_bindings,
    materialize,
)
from repro.pipeline import (
    ParametricReductionJob,
    ReductionJob,
    _worst_rel_dev,
    run_parametric,
)
from repro.serve import ServeMetrics
from repro.store import ModelStore, fingerprint_system

REDUCE = {"orders": [3, 2, 1], "strategy": "decoupled"}
SWEEP = {"start": 0.05, "stop": 0.5, "points": 7, "amplitude": 0.1}


def annotated_ladder(n_nodes=24, ranged_g=False):
    """A small quadratic RC ladder with named device parameters.

    ``r_series`` always carries a [low, high] range (one grid axis);
    ``g_quad`` gets a range only when *ranged_g* (a second axis),
    otherwise it is Monte-Carlo-only (sigma, no range).
    """
    net = quadratic_rc_ladder_netlist(n_nodes=n_nodes, quad_nodes=2)
    r_sites = tuple(
        i for i, dev in enumerate(net.devices) if hasattr(dev, "resistance")
    )
    g_sites = tuple(
        i for i, dev in enumerate(net.devices)
        if getattr(dev, "g2", 0.0) != 0.0
    )
    bounds = {"low": 0.4, "high": 0.6} if ranged_g else {}
    return net.with_params([
        Parameter("r_series", "resistance", r_sites, nominal=1.0,
                  low=0.9, high=1.15, sigma=0.03),
        Parameter("g_quad", "g2", g_sites, nominal=0.5, sigma=0.05,
                  **bounds),
    ])


@pytest.fixture(scope="module")
def ladder():
    return annotated_ladder()


@pytest.fixture(scope="module")
def base_run(ladder):
    """One shared 3-corner parametric run (r_series axis only)."""
    return run_parametric(
        ladder, reduce=REDUCE, sweep=SWEEP,
        mc={"grid_points": {"r_series": 3}, "seed": 7},
        sparse=True,
    )


class TestParameter:
    def test_topology_fields_are_not_bindable(self):
        with pytest.raises(ValidationError):
            Parameter("p", "node_pos", (0,), nominal=1.0)

    def test_range_must_be_consistent(self):
        with pytest.raises(ValidationError):
            Parameter("p", "resistance", (0,), nominal=1.0, low=0.5)
        with pytest.raises(ValidationError):
            Parameter("p", "resistance", (0,), nominal=2.0,
                      low=0.5, high=1.5)
        with pytest.raises(ValidationError):
            Parameter("p", "resistance", (0,), nominal=1.0, sigma=-0.1)

    def test_needs_device_sites(self):
        with pytest.raises(ValidationError):
            Parameter("p", "resistance", (), nominal=1.0)

    def test_coerce_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            Parameter.coerce({
                "name": "p", "field": "resistance", "devices": [0],
                "nominal": 1.0, "scale": "log",
            })

    def test_grid_values_and_seeded_draws(self):
        param = Parameter("p", "resistance", (0,), nominal=1.0,
                          low=0.5, high=1.5, sigma=0.1)
        np.testing.assert_allclose(
            param.grid_values(3), [0.5, 1.0, 1.5]
        )
        draws = [param.draw(np.random.default_rng(3)) for _ in range(2)]
        assert draws[0] == draws[1]
        assert 0.5 <= draws[0] <= 1.5

    def test_binding_validation(self, ladder):
        with pytest.raises(ValidationError):
            check_bindings(ladder, [
                Parameter("bad", "resistance", (10 ** 6,), nominal=1.0)
            ])
        with pytest.raises(ValidationError):
            check_bindings(ladder, [
                Parameter("dup", "resistance", (0,), nominal=1.0),
                Parameter("dup", "resistance", (1,), nominal=1.0),
            ])


class TestNetlistRoundTrip:
    def test_parameters_survive_to_dict_from_dict(self, ladder):
        data = json.loads(json.dumps(ladder.to_dict()))
        clone = Netlist.from_dict(data)
        assert clone.parameters == ladder.parameters
        assert all(isinstance(p, Parameter) for p in clone.parameters)

    def test_unannotated_netlist_dict_has_no_parameters_key(self):
        net = quadratic_rc_ladder_netlist(n_nodes=8, quad_nodes=1)
        assert "parameters" not in net.to_dict()

    def test_shipped_spec_is_annotated_and_bindable(self):
        with open("examples/specs/rc_ladder_params.json") as handle:
            spec = json.load(handle)
        net = Netlist.from_dict(spec)
        assert [p.name for p in net.parameters] == ["r_series", "g_quad"]
        check_bindings(net, net.parameters)


class TestGridAndSampler:
    def test_grid_shape_and_index_round_trip(self):
        grid = ParameterGrid(annotated_ladder(ranged_g=True),
                             {"r_series": 3, "g_quad": 2})
        assert grid.shape == (3, 2)
        assert len(grid) == 6
        for flat in range(len(grid)):
            assert grid.flat_index(grid.multi_index(flat)) == flat
        corner = grid.corner_values((2, 1))
        assert corner["r_series"] == pytest.approx(1.15)
        assert corner["g_quad"] == pytest.approx(0.6)

    def test_interp_schedule_covers_grid_with_completed_pairs(self):
        grid = ParameterGrid(annotated_ladder(ranged_g=True), 4)
        waves = grid.interp_schedule()
        seen = set()
        for wave_idx, wave in enumerate(waves):
            for flat, pair in wave:
                if wave_idx == 0:
                    assert pair is None
                else:
                    # both anchors were scheduled in an earlier wave
                    assert pair is not None and set(pair) <= seen
            seen |= {flat for flat, _ in wave}
        assert seen == set(range(len(grid)))

    def test_mc_sampler_is_seed_deterministic(self, ladder):
        a = MonteCarloSampler(ladder, 4, seed=11)
        b = MonteCarloSampler(ladder, 4, seed=11)
        c = MonteCarloSampler(ladder, 4, seed=12)
        assert a.samples == b.samples
        assert a.samples != c.samples
        assert a.describe() == {"draws": 4, "seed": 11}
        for sample in a.samples:
            assert 0.9 <= sample["r_series"] <= 1.15


class TestCrossCornerReuse:
    def test_same_pattern_different_data_distinct_store_keys(
        self, ladder, tmp_path
    ):
        store = ModelStore(tmp_path)
        reducer = ReductionJob.coerce(REDUCE).reducer()
        systems = [
            materialize(ladder, {"r_series": r}).compile(sparse=True)
            for r in (0.9, 1.15)
        ]
        # identical CSR structure ...
        assert structural_digest(systems[0]) == structural_digest(systems[1])
        # ... but different values: fingerprints and keys must differ
        assert fingerprint_system(systems[0]) != fingerprint_system(systems[1])
        keys = [store.key_for(system, reducer) for system in systems]
        assert keys[0] != keys[1]

    def test_symbolic_lu_analysis_shared_across_corners(self, ladder):
        lu_mod._SYMBOLIC_CACHE.clear()
        g1_a = materialize(ladder, {"r_series": 0.9}).compile(sparse=True).g1
        g1_b = materialize(ladder, {"r_series": 1.1}).compile(sparse=True).g1
        rhs = np.arange(1.0, g1_a.shape[0] + 1.0)

        first = ResolventFactory(g1_a)
        x_a = first.solve(0.1, rhs)
        assert first.sparse_lu_stats["symbolic_analyses"] == 1
        assert first.sparse_lu_stats["symbolic_reuses"] == 0

        second = ResolventFactory(g1_b)
        x_b = second.solve(0.1, rhs)
        assert second.sparse_lu_stats["symbolic_analyses"] == 0
        assert second.sparse_lu_stats["symbolic_reuses"] >= 1

        # the shared analysis must not perturb the numerics
        for g1, x in ((g1_a, x_a), (g1_b, x_b)):
            dense = 0.1 * np.eye(g1.shape[0]) - g1.toarray()
            np.testing.assert_allclose(
                x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-10
            )


class TestRunParametric:
    def test_tier_ladder_on_three_corner_axis(self, base_run):
        tiers = base_run.tiers
        # 3-point axis: positions 0/2 are anchors (one cold, one
        # warm-seeded), position 1 is served by interpolation or its
        # warm fallback.
        assert tiers["cold"] == 1
        assert tiers["warm"] >= 1
        total = (tiers["cold"] + tiers["warm"] + tiers["interp"]
                 + tiers["dedup"])
        assert total == len(base_run.corners) == 3
        assert all(rec["tier"] for rec in base_run.corners)

    def test_default_regime_corners_take_dense_pi_route(self, base_run):
        # The family's ladder has the generator's spread (~40): every
        # reduced corner, cold or warm-seeded, routes Π to the dense
        # Schur solve on the same evidence.
        plans = [
            base_run.roms[rec["index"]].details["pi_plan"]
            for rec in base_run.corners if rec["tier"] in ("cold", "warm")
        ]
        assert len(plans) >= 2
        assert all(plan["route"] == "dense" for plan in plans)
        assert all(plan["rounds"] == 0 for plan in plans)

    def test_report_is_json_able_with_distributions(self, base_run):
        report = json.loads(json.dumps(base_run.report()))
        assert report["mc"]["seed"] == 7
        dist = report["distributions"]["corners"]
        omegas = report["distributions"]["omegas"]
        assert len(dist["hd2_p50"]) == len(omegas) == 7
        assert dist["worst_hd3_p99"] >= dist["worst_hd3_p50"] >= 0.0

    def test_interp_fallback_matches_cold_reduction(self, ladder):
        # An impossibly tight tolerance forces every interpolation
        # candidate through the probe check and into rejection; the
        # fallback reductions must match from-scratch ones to 1e-9.
        result = run_parametric(
            ladder, reduce=REDUCE, sweep=SWEEP,
            mc={"grid_points": {"r_series": 3}, "interp_tol": 1e-15},
            sparse=True,
        )
        assert result.tiers["interp"] == 0
        assert result.tiers["interp_rejected"] >= 1

        reduce_job = ReductionJob.coerce(REDUCE)
        omegas = np.asarray(result.distributions["omegas"], dtype=float)
        for corner in result.corners:
            system = materialize(ladder, corner["values"]).compile(
                sparse=True
            )
            rom = reduce_job.reducer().reduce(system)
            _, hd2, hd3 = distortion_sweep(
                rom.system.to_explicit(), omegas, SWEEP["amplitude"]
            )
            assert _worst_rel_dev(corner["hd2"], hd2) <= 1e-9
            assert _worst_rel_dev(corner["hd3"], hd3) <= 1e-9

    def test_store_dedup_serves_second_run(self, ladder, tmp_path):
        store = ModelStore(tmp_path)
        kwargs = dict(
            reduce=REDUCE, sweep=SWEEP,
            mc={"grid_points": {"r_series": 3}}, sparse=True,
        )
        first = run_parametric(ladder, store=store, **kwargs)
        assert first.tiers["dedup"] == 0
        keys = [rec["store_key"] for rec in first.corners]
        assert len(set(keys)) == len(keys)  # distinct per corner

        second = run_parametric(ladder, store=store, **kwargs)
        # every corner that was *reduced* (interp ROMs are never
        # stored) is now served straight from the store
        reduced = first.tiers["cold"] + first.tiers["warm"]
        assert second.tiers["dedup"] == reduced
        assert second.tiers["cold"] == 0
        assert second.store_stats["hits"] >= reduced
        for before, after in zip(first.corners, second.corners):
            assert _worst_rel_dev(after["hd2"], before["hd2"]) <= 1e-9
            assert _worst_rel_dev(after["hd3"], before["hd3"]) <= 1e-9

    def test_mc_draws_reproduce_bit_for_bit(self, ladder):
        kwargs = dict(
            reduce=REDUCE, sweep=SWEEP,
            mc={"grid_points": {"r_series": 2}, "draws": 2, "seed": 42},
            sparse=True,
        )
        first = run_parametric(ladder, **kwargs)
        second = run_parametric(ladder, **kwargs)
        assert len(first.draws) == 2
        assert [d["values"] for d in first.draws] == [
            d["values"] for d in second.draws
        ]
        for key in ("hd2_p50", "hd2_p99", "hd3_p50", "hd3_p99"):
            np.testing.assert_array_equal(
                first.distributions["draws"][key],
                second.distributions["draws"][key],
            )

    def test_validation(self, ladder):
        with pytest.raises(ValidationError):
            run_parametric(ladder, reduce=REDUCE, sweep=None)
        plain = quadratic_rc_ladder_netlist(n_nodes=8, quad_nodes=1)
        with pytest.raises(ValidationError):
            run_parametric(plain, reduce=REDUCE, sweep=SWEEP)
        with pytest.raises(ValidationError):
            ParametricReductionJob.coerce({"grid_pts": 3})


class TestServeTierMetrics:
    def test_record_tiers_accumulates(self):
        metrics = ServeMetrics()
        metrics.record_tiers({"dedup": 2, "warm": 1})
        metrics.record_tiers({"dedup": 1, "interp": 3})
        snap = metrics.snapshot()["parametric_tiers"]
        assert snap == {"dedup": 3, "warm": 1, "interp": 3}
