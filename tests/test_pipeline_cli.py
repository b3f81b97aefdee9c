"""Pipeline API + CLI end-to-end: job coercion, netlist JSON round-trip,
run_pipeline routing (store, sweep, transient), and ``python -m repro``
on the shipped example spec.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import Netlist, quadratic_rc_ladder_netlist
from repro.cli import main as cli_main
from repro.errors import ValidationError
from repro.pipeline import (
    ParametricReductionJob,
    ReductionJob,
    SweepJob,
    TransientJob,
    run_parametric,
    run_pipeline,
    system_from_spec,
)
from repro.systems import QLDAE

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_SPEC = REPO_ROOT / "examples" / "specs" / "rc_ladder.json"
PARAMS_SPEC = REPO_ROOT / "examples" / "specs" / "rc_ladder_params.json"


class TestNetlistDictRoundTrip:
    def test_round_trip_compiles_identically(self):
        net = quadratic_rc_ladder_netlist(24, c=0.5)
        data = net.to_dict()
        back = Netlist.from_dict(data)
        assert back.name == net.name
        assert back.n_nodes == net.n_nodes
        assert back.n_inputs == net.n_inputs
        assert back.output_nodes == net.output_nodes
        a = net.compile(sparse=False)
        b = back.compile(sparse=False)
        assert np.array_equal(a.g1, b.g1)
        assert np.array_equal(a.mass, b.mass)
        assert np.array_equal(a.b, b.b)
        assert (a.g2 != b.g2).nnz == 0

    def test_json_serializable(self):
        data = quadratic_rc_ladder_netlist(10).to_dict()
        again = json.loads(json.dumps(data))
        assert Netlist.from_dict(again).n_nodes == 10

    def test_all_device_types_round_trip(self):
        net = Netlist(name="everything")
        net.add_resistor(1, 0, 2.0)
        net.add_capacitor(1, 0, 0.5)
        net.add_inductor(1, 2, 0.1)
        net.add_capacitor(2, 0, 1.0)
        net.add_conductance(2, 0, g1=0.1, g2=0.2, g3=0.05)
        net.add_diode(1, 2, i_s=2.0, kappa=10.0)
        net.add_current_source(1, 0, input_index=1, gain=0.5)
        net.set_output_nodes([2])
        back = Netlist.from_dict(net.to_dict())
        assert [type(d) for d in back.devices] == (
            [type(d) for d in net.devices]
        )
        assert back.devices == net.devices
        assert back.n_inputs == net.n_inputs == 2

    def test_bad_specs_raise(self):
        with pytest.raises(ValidationError):
            Netlist.from_dict({"devices": [{"type": "transistor"}]})
        with pytest.raises(ValidationError):
            Netlist.from_dict(
                {"devices": [{"type": "resistor", "bogus": 1}]}
            )
        with pytest.raises(ValidationError):
            Netlist.from_dict("not a dict")


class TestJobs:
    def test_reduction_job_coercion(self):
        assert ReductionJob.coerce(None) is None
        job = ReductionJob.coerce((4, 2, 0))
        assert job.orders == (4, 2, 0)
        job2 = ReductionJob.coerce(
            {"orders": [3, 2, 1], "strategy": "decoupled"}
        )
        assert job2.strategy == "decoupled"
        with pytest.raises(ValidationError):
            ReductionJob.coerce({"orders": [3, 2, 1], "bogus": 1})
        with pytest.raises(ValidationError):
            ReductionJob.coerce({"orders": [0, 0, 0]})  # reducer rejects

    def test_sweep_job_coercion(self):
        job = SweepJob.coerce({"start": 0.1, "stop": 0.5, "points": 5})
        assert job.omegas.shape == (5,)
        job2 = SweepJob.coerce([0.1, 0.2])
        assert np.array_equal(job2.omegas, [0.1, 0.2])
        with pytest.raises(ValidationError):
            SweepJob.coerce({"start": 0.1})  # missing stop
        with pytest.raises(ValidationError):
            SweepJob.coerce({"omegas": [0.0, 0.1]})  # DC point

    def test_transient_job_sources(self):
        job = TransientJob.coerce(
            {"source": {"kind": "sine", "amplitude": 0.1}, "t_end": 1.0,
             "dt": 0.1}
        )
        assert abs(job.source(0.25) - 0.1 * np.sin(np.pi / 2)) < 1e-12
        fn = lambda t: 0.5  # noqa: E731
        job2 = TransientJob.coerce(
            {"source": fn, "t_end": 1.0, "dt": 0.1}
        )
        assert job2.source is fn
        with pytest.raises(ValidationError):
            TransientJob.coerce(
                {"source": {"kind": "noise"}, "t_end": 1.0, "dt": 0.1}
            )
        with pytest.raises(ValidationError):
            TransientJob.coerce(
                {"source": {"kind": "sine", "volume": 2}, "t_end": 1.0,
                 "dt": 0.1}
            )

    #: One valid value for every constructor parameter of each job.
    EVERY_FIELD = {
        ReductionJob: {
            "orders": [3, 2, 0], "expansion_points": [0.0],
            "strategy": "decoupled", "deduplicate": False, "tol": 1e-9,
        },
        SweepJob: {
            "start": 0.1, "stop": 0.5, "points": 3, "omegas": [0.2, 0.3],
            "amplitude": 0.5, "compare_full": True,
        },
        TransientJob: {
            "source": {"kind": "step", "amplitude": 0.1}, "t_end": 1.0,
            "dt": 0.1, "compare_full": True,
        },
        ParametricReductionJob: {
            "grid_points": 2, "draws": 1, "seed": 5, "warm": False,
            "interp": False, "interp_tol": 1e-3,
        },
    }

    @pytest.mark.parametrize("job_class", list(EVERY_FIELD),
                             ids=lambda cls: cls.__name__)
    def test_coerce_takes_exactly_the_constructor_fields(self, job_class):
        fields = self.EVERY_FIELD[job_class]
        assert set(fields) == (
            set(inspect.signature(job_class).parameters)
        )
        job = job_class.coerce(dict(fields))
        assert isinstance(job, job_class)
        name = sorted(fields)[0]
        misspelt = dict(fields)
        misspelt[name + "x"] = misspelt.pop(name)
        with pytest.raises(
            ValidationError, match=f"unknown {job_class.__name__} fields"
        ):
            job_class.coerce(misspelt)

    def test_coerce_follows_a_subclass_constructor(self):
        class ScaledJob(ReductionJob):
            def __init__(self, orders=(3, 2, 0), scale=1.0):
                super().__init__(orders=orders)
                self.scale = float(scale)

        job = ScaledJob.coerce({"orders": [2, 1, 0], "scale": 2.0})
        assert job.orders == (2, 1, 0) and job.scale == 2.0
        with pytest.raises(ValidationError, match="unknown ScaledJob"):
            ScaledJob.coerce({"tol": 1e-9})

    def test_bad_shape_names_the_section(self):
        with pytest.raises(ValidationError, match="reduce must be"):
            ReductionJob.coerce("6,3,0")
        with pytest.raises(ValidationError, match="transient must be"):
            TransientJob.coerce([1.0, 0.1])


class TestSystemFromSpec:
    def test_devices_spec(self):
        spec = quadratic_rc_ladder_netlist(12).to_dict()
        system, info = system_from_spec(spec)
        assert isinstance(system, QLDAE)
        assert info["n_states"] == 12
        assert info["lifted"] is False

    def test_generator_spec_and_sparse_override(self):
        spec = {
            "generator": "quadratic_rc_ladder_netlist",
            "args": {"n_nodes": 20},
        }
        system, info = system_from_spec(spec, sparse=True)
        assert system.is_sparse and info["sparse"] is True

    def test_diode_spec_lifts_by_default(self):
        net = Netlist(name="diode")
        net.add_capacitor(1, 0, 1.0)
        net.add_resistor(1, 0, 1.0)
        net.add_diode(1, 0)
        net.add_current_source(1, 0)
        net.set_output_nodes([1])
        system, info = system_from_spec(net.to_dict())
        assert info["lifted"] is True
        assert isinstance(system, QLDAE)

    def test_unknown_generator_raises(self):
        with pytest.raises(ValidationError):
            system_from_spec({"generator": "warp_core"})

    def test_unknown_generator_same_error_at_every_front_door(self):
        spec = {"generator": "warp_core", "parameters": []}
        messages = []
        for call in (
            lambda: system_from_spec(spec),
            lambda: run_pipeline(spec, reduce=(3, 2, 0)),
            lambda: run_parametric(
                spec, sweep={"start": 0.1, "stop": 0.3, "points": 2}
            ),
        ):
            with pytest.raises(ValidationError,
                               match="unknown generator 'warp_core'") as err:
                call()
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]


class TestRunPipeline:
    def test_store_round_trip_parity(self, tmp_path):
        net = quadratic_rc_ladder_netlist(24)
        sweep = {"start": 0.05, "stop": 0.4, "points": 4}
        cold = run_pipeline(net, reduce=(4, 2, 0), sweep=sweep,
                            store=tmp_path / "store")
        warm = run_pipeline(net, reduce=(4, 2, 0), sweep=sweep,
                            store=tmp_path / "store")
        assert cold.store_hit is False and warm.store_hit is True
        assert np.abs(warm.sweep["hd2"] - cold.sweep["hd2"]).max() <= 1e-12
        assert np.abs(warm.sweep["hd3"] - cold.sweep["hd3"]).max() <= 1e-12

    def test_store_and_storeless_runs_share_basis_hash(self, tmp_path):
        net = quadratic_rc_ladder_netlist(16)
        stored = run_pipeline(net, reduce=(4, 2, 0), store=tmp_path)
        bare = run_pipeline(net, reduce=(4, 2, 0))
        assert stored.store_hit is False and bare.store_hit is None
        hashes = [
            result.artifact.provenance["basis_hash"]
            for result in (stored, bare)
        ]
        assert hashes[0] == hashes[1]
        assert (
            stored.artifact.provenance["system_fingerprint"]
            == bare.artifact.provenance["system_fingerprint"]
        )

    def test_lti_target_with_jobs_rejected_cleanly(self):
        from repro.systems import StateSpace

        ss = StateSpace(-np.eye(3), np.ones(3))
        with pytest.raises(ValidationError, match="polynomial system"):
            run_pipeline(ss, sweep={"start": 0.1, "stop": 0.3,
                                    "points": 2})

    def test_exponential_target_lifts_without_reduce(self):
        from repro.circuits import nonlinear_transmission_line

        result = run_pipeline(
            nonlinear_transmission_line(6),
            sweep={"start": 0.05, "stop": 0.2, "points": 2},
        )
        assert result.system_info["lifted"] is True
        assert result.sweep["on"] == "full"

    def test_full_model_queries_without_reduce(self):
        net = quadratic_rc_ladder_netlist(16)
        result = run_pipeline(net, sweep={"start": 0.1, "stop": 0.3,
                                          "points": 3})
        assert result.rom is None
        assert result.sweep["on"] == "full"
        report = result.report()
        assert "reduction" not in report
        json.dumps(report)  # must be JSON-able as-is

    def test_compare_full_metrics(self):
        net = quadratic_rc_ladder_netlist(20)
        result = run_pipeline(
            net,
            reduce=(5, 2, 0),
            sweep={"start": 0.05, "stop": 0.4, "points": 3,
                   "compare_full": True},
            transient={"source": {"kind": "step", "amplitude": 0.2},
                       "t_end": 1.0, "dt": 0.05, "compare_full": True},
        )
        assert result.sweep["hd2_worst_rel_dev"] < 1e-3
        assert result.transient["max_rel_error"] < 1e-3
        report = result.report()
        assert report["reduction"]["rom_order"] == result.rom.order
        json.dumps(report)


class TestCli:
    def _run(self, *argv):
        return cli_main(list(argv))

    def test_info(self, capsys):
        assert self._run("info", str(SHIPPED_SPEC)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["system"]["n_states"] == 40
        assert report["command"] == "info"

    def test_sweep_shipped_spec(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "sweep.csv"
        code = self._run(
            "sweep", str(SHIPPED_SPEC), "--points", "4",
            "--out", str(out), "--csv", str(csv_path),
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["sweep"]["hd2"]) == 4
        assert report["sweep"]["hd2_worst_rel_dev"] < 1e-3
        assert json.loads(out.read_text()) == report
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("omega,hd2,hd3")
        assert len(lines) == 5

    def test_reduce_store_and_artifact(self, capsys, tmp_path):
        store = tmp_path / "models"
        artifact = tmp_path / "rom.npz"
        assert self._run(
            "reduce", str(SHIPPED_SPEC), "--store", str(store),
            "--artifact", str(artifact),
        ) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["reduction"]["store_hit"] is False
        assert artifact.exists()
        from repro.store import ReductionArtifact

        art = ReductionArtifact.load(artifact)
        assert art.rom.order == first["reduction"]["rom_order"]
        assert self._run(
            "reduce", str(SHIPPED_SPEC), "--store", str(store)
        ) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["reduction"]["store_hit"] is True
        assert second["store"]["hits"] == 1

    def test_store_ls_and_gc(self, capsys, tmp_path):
        store = tmp_path / "models"
        assert self._run(
            "reduce", str(SHIPPED_SPEC), "--store", str(store)
        ) == 0
        capsys.readouterr()
        assert self._run("store", "ls", str(store)) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["command"] == "store ls"
        assert listing["count"] == 1
        assert listing["entries"][0]["bytes"] > 0
        # generous budgets keep everything ...
        assert self._run(
            "store", "gc", str(store), "--ttl", "7d",
            "--max-bytes", "1g",
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "store gc"
        assert report["evicted_count"] == 0
        # ... a one-byte budget clears the store
        assert self._run(
            "store", "gc", str(store), "--max-bytes", "1"
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted_count"] == 1
        assert report["remaining_entries"] == 0

    def test_simulate(self, capsys, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code = self._run(
            "simulate", str(SHIPPED_SPEC), "--t-end", "1.0",
            "--dt", "0.05", "--csv", str(csv_path),
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["transient"]["on"] == "rom"
        assert report["transient"]["max_rel_error"] < 1e-3
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,output,full_output"
        assert len(lines) == 22  # header + 21 steps

    def test_orders_override(self, capsys):
        assert self._run(
            "reduce", str(SHIPPED_SPEC), "--orders", "4,2,0"
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reduction"]["orders"] == [4, 2, 0]

    def test_report_is_strict_json(self, capsys, tmp_path):
        """Non-finite floats must never reach stdout as bare
        Infinity/NaN tokens — strict parsers (jq) reject those."""
        assert self._run("sweep", str(SHIPPED_SPEC), "--points", "3") == 0
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=lambda tok: pytest.fail(
            f"non-RFC-8259 token {tok} in CLI output"
        ))
        assert report["command"] == "sweep"

    def test_bad_spec_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert self._run("info", str(bad)) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_jobs_is_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            quadratic_rc_ladder_netlist(8).to_dict()
        ))
        assert self._run("sweep", str(spec)) == 2
        assert self._run("simulate", str(spec)) == 2
        capsys.readouterr()

    def test_subprocess_end_to_end(self, tmp_path):
        """python -m repro, as CI's smoke step invokes it."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", str(SHIPPED_SPEC),
             "--points", "3"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["command"] == "sweep"
        assert len(report["sweep"]["omegas"]) == 3
