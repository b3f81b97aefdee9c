"""Self-tests of the benchmark (no library work; a few seconds).

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that inputs follow the seed, that every output check fails
a perturbed answer, that a failed operation is counted, that the metric
names the harness emits are the ones ``BENCHMARK.json`` declares, and
that the harness refuses to run without the library's sources.
"""

import copy
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _sweep_answer():
    hd2 = [1e-3 * (k + 1) for k in range(8)]
    hd3 = [1e-5 * (k + 2) for k in range(8)]
    return {
        "rom_order": 6, "hd2": list(hd2), "hd3": list(hd3),
        "hd2_full": [x * (1 + 1e-14) for x in hd2], "hd3_full": list(hd3),
        "store_roundtrip": True,
    }


def _family_answer():
    members = []
    for tier in ("cold", "warm", "interp"):
        hd2 = [2e-3, 3e-3, 4e-3]
        hd3 = [5e-6, 6e-6, 7e-6]
        members.append({
            "tier": tier, "reduce_time_s": 0.1, "rom_order": 8,
            "hd2": [x * (1 + 1e-6) for x in hd2], "hd3": list(hd3),
            "hd2_full": hd2, "hd3_full": hd3,
        })
    return {
        "rom_order": 8, "interp_tol": 1e-4, "members": members,
        "tiers": {"cold": 1, "warm": 1, "interp": 1, "dedup": 0,
                  "interp_rejected": 0},
        "timings": {"sweeps_s": 0.2},
    }


def _transient_answer():
    full = [0.01 * k for k in range(50)]
    return {
        "rom_order": 11, "full_output": full,
        "rom_output": [x + 1e-5 for x in full], "transient_tol": 2e-3,
    }


def _served_record(key="ladder-256/grid0", tier="hot", status=200):
    return {
        "verb": "sweep", "key": key, "status": status, "latency_s": 0.02,
        "served_from": tier, "wall_time_s": 0.015, "rom_order": 6,
        "hd2": [1e-3, 2e-3], "hd3": [1e-5, 2e-5], "output": None,
        "error": None if status == 200 else "refused",
    }


class SeededInputs(unittest.TestCase):
    def test_job_lists_follow_the_seed(self):
        for workload in ("oneshot-healthy", "family-default"):
            first = workloads.jobs_for(workload, ROOT, 7)
            self.assertEqual(first, workloads.jobs_for(workload, ROOT, 7))
            self.assertNotEqual(first, workloads.jobs_for(workload, ROOT, 8))

    def test_each_pass_draws_its_own_inputs(self):
        for workload in ("oneshot-healthy", "family-default"):
            self.assertNotEqual(workloads.jobs_for(workload, ROOT, 7, 0),
                                workloads.jobs_for(workload, ROOT, 7, 1))

    def test_paper_jobs_ignore_the_seed(self):
        self.assertEqual(workloads.jobs_for("paper-dense", ROOT, 1),
                         workloads.jobs_for("paper-dense", ROOT, 2))

    def test_request_stream_follows_the_seed(self):
        first = workloads.stream_prefix(ROOT, 7, 500)
        self.assertEqual(first, workloads.stream_prefix(ROOT, 7, 500))
        self.assertNotEqual(first, workloads.stream_prefix(ROOT, 8, 500))

    def test_every_spec_is_first_requested_on_its_slot(self):
        prefix = workloads.stream_prefix(ROOT, 3, run.SERVED_REQUESTS)
        first = {}
        for index, (_, _, key) in enumerate(prefix):
            first.setdefault(key.split("/")[0], index)
        every = workloads.SERVED_FIRST_TOUCH_EVERY
        self.assertEqual(sorted(first.values()),
                         [every * k for k in range(len(first))])
        self.assertEqual(len(first), len(workloads.served_specs(ROOT)))

    def test_oneshot_draws_stay_within_ten_percent(self):
        for seed in range(50):
            args = workloads.oneshot_jobs(seed)[0]["spec"]["args"]
            self.assertLessEqual(abs(args["r"] / 10.0 - 1), 0.1)
            self.assertLessEqual(abs(args["g_quad"] / 0.5 - 1), 0.1)


class ChecksFailPerturbedAnswers(unittest.TestCase):
    def test_sweep(self):
        answer = _sweep_answer()
        self.assertEqual(checks.check_call(answer), [])
        answer["hd3"] = [x * (1 + 1e-3) for x in answer["hd3"]]
        self.assertTrue(checks.check_call(answer))

    def test_store_roundtrip(self):
        answer = _sweep_answer()
        answer["store_roundtrip"] = False
        self.assertTrue(checks.check_call(answer))

    def test_family_member(self):
        answer = _family_answer()
        self.assertEqual(checks.check_call(answer), [])
        answer["members"][2]["hd3"] = [
            x * (1 + 1e-3) for x in answer["members"][2]["hd3"]
        ]
        self.assertEqual(len(checks.check_call(answer)), 1)

    def test_transient(self):
        answer = _transient_answer()
        self.assertEqual(checks.check_call(answer), [])
        answer["rom_output"][10] += 0.01
        self.assertTrue(checks.check_call(answer))

    def test_non_finite_answers_fail(self):
        answer = _sweep_answer()
        answer["hd2"][0] = math.nan
        self.assertTrue(checks.check_call(answer))

    def test_refused_and_timed_out_requests_fail(self):
        for status in (429, 500, 504, 0):
            self.assertTrue(checks.check_status(_served_record(status=status)))
        self.assertEqual(checks.check_status(_served_record()), [])

    def test_tier_answers_must_be_identical(self):
        records = [_served_record(tier="cold"), _served_record(tier="disk"),
                   _served_record(tier="hot")]
        self.assertEqual(checks.check_tiers(records), {})
        records[2]["hd3"] = [x * (1 + 1e-3) for x in records[2]["hd3"]]
        self.assertEqual(list(checks.check_tiers(records)), [2])

    def test_reference(self):
        record = _served_record()
        reference = {"hd2": list(record["hd2"]), "hd3": list(record["hd3"])}
        self.assertEqual(checks.check_reference(record, reference), [])
        reference["hd3"] = [x * (1 + 1e-3) for x in reference["hd3"]]
        self.assertTrue(checks.check_reference(record, reference))
        self.assertTrue(checks.check_reference(record, {"error": "boom"}))


class FailuresAreCounted(unittest.TestCase):
    def _pass(self, answer, ok=True):
        call = {"name": "job", "ok": ok, "latency_s": 2.0,
                "peak_rss_mb": 100.0, "answer": answer,
                "error": None if ok else "ValueError: boom"}
        run.mark_failures([call])
        return {"calls": [call]}

    def test_failed_check_misses_every_latency_limit(self):
        bad = _sweep_answer()
        bad["hd3"] = [x * 2 for x in bad["hd3"]]
        passes = [self._pass(_sweep_answer()), self._pass(bad),
                  self._pass(_sweep_answer())]
        metrics = run.job_end_to_end([0.5], passes)
        self.assertEqual(metrics["request_p99_ms"], math.inf)
        self.assertEqual(metrics["time_to_answer_s"], 2.0)
        self.assertEqual(metrics["requests_per_s"], 0.5)

    def test_exception_is_a_failed_call(self):
        passes = [self._pass(_sweep_answer()),
                  self._pass(_sweep_answer(), ok=False)]
        failed = [c for p in passes for c in p["calls"] if c["failures"]]
        self.assertEqual(len(failed), 1)


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.benchmark = _benchmark()

    def names(self, section):
        return {m["name"] for m in self.benchmark[section]}

    def test_end_to_end_names(self):
        passes = [{"calls": [{"ok": True, "latency_s": 1.0,
                              "peak_rss_mb": 50.0, "failures": [],
                              "answer": _sweep_answer()}]}]
        self.assertEqual(set(run.job_end_to_end([0.4], passes)),
                         self.names("end_to_end"))
        served = {"records": [dict(_served_record(), failures=[])],
                  "wall_s": 1.0, "peak_rss_mb": 60.0}
        self.assertEqual(set(run.served_end_to_end([0.4], served)),
                         self.names("end_to_end"))

    def test_per_layer_names(self):
        empty = tracing.Tracer().snapshot()
        job_layers = run.per_layer(empty, calls=[{
            "ok": True, "answer": _family_answer(), "failures": [],
        }])
        self.assertEqual(set(job_layers), self.names("per_layer"))
        served = {"records": [dict(_served_record(), failures=[])],
                  "stats": {"coalescer": {"requests": 1, "coalesced": 0},
                            "specs": {"hits": 1, "misses": 1}}}
        self.assertEqual(set(run.per_layer(empty, served=served)),
                         self.names("per_layer"))

    def test_benchmark_json_follows_the_contract(self):
        bench = self.benchmark
        self.assertEqual(set(bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        })
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        names = [m["name"] for section in ("end_to_end", "per_layer")
                 for m in bench[section]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in bench["end_to_end"]:
            self.assertEqual(set(metric),
                             {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertGreater(metric["bound"], 0.0)
        for metric in bench["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        for workload in bench["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)


class RefusesWithoutTheLibrary(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            for workload in workloads.WORKLOADS:
                done = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload",
                     workload, "--seed", "1", "--seconds", "1",
                     "--trace", "0"],
                    cwd=tmp, capture_output=True, text=True, timeout=60,
                )
                self.assertNotEqual(done.returncode, 0)
                self.assertNotIn('"metrics"', done.stdout)


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
            {"id": 3, "parent": 1, "start": 5.0, "end": 6.0},
            {"id": 4, "parent": 2, "start": 2.0, "end": 3.0},
        ]
        own = tracing.self_times(copy.deepcopy(spans))
        self.assertEqual(own, {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


if __name__ == "__main__":
    unittest.main()
