#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the program it measures).

    python3 perfbench/tests/test_perfbench.py

Covers the result schema check, BENCHMARK.json's agreement with run.py's
metric tables and with the benchmark contract, the spread statistic, and
(by building and running perfbench_selftest) the percentile rule with ten
samples beyond every reported tail and the ratio bases.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import spread  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def good_result(trace):
    table = run.PER_LAYER if trace else run.END_TO_END
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u} for n, u in table.items()}}


class ValidateTest(unittest.TestCase):
    def test_accepts_complete_results(self):
        self.assertEqual(run.validate(good_result(False), False), [])
        self.assertEqual(run.validate(good_result(True), True), [])

    def test_rejects_the_other_modes_metrics(self):
        self.assertTrue(run.validate(good_result(True), False))

    def test_rejects_missing_and_extra_metrics(self):
        r = good_result(False)
        del r["metrics"]["setup_s"]
        self.assertTrue(run.validate(r, False))
        r = good_result(False)
        r["metrics"]["error_rate"] = {"value": 0, "unit": "ratio"}
        self.assertTrue(run.validate(r, False))

    def test_rejects_bad_fields(self):
        for mutate in (
            lambda r: r.update(extra=1),
            lambda r: r.update(attempted=0),
            lambda r: r.update(attempted=True),
            lambda r: r.update(failed=-1),
            lambda r: r.update(correct="yes"),
            lambda r: r["metrics"]["goodput_mbps"].update(value=math.nan),
            lambda r: r["metrics"]["goodput_mbps"].update(value="1"),
            lambda r: r["metrics"]["goodput_mbps"].update(unit="GB/s"),
        ):
            r = good_result(False)
            mutate(r)
            self.assertTrue(run.validate(r, False), r)


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.doc = json.load(f)

    def test_keys_and_command(self):
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds",
                                         "workloads", "end_to_end", "per_layer"})
        self.assertEqual(self.doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.doc["paths"], ["perfbench"])
        self.assertIsInstance(self.doc["run_seconds"], int)
        self.assertTrue(1 <= self.doc["run_seconds"] <= 60)

    def test_tables_match_run_py(self):
        gated = [w["name"] for w in self.doc["workloads"]]
        self.assertTrue(set(gated) <= set(run.WORKLOADS), gated)
        self.assertIn("hot_replay", gated)
        self.assertIn("churn_mix", gated)
        self.assertEqual({m["name"]: m["unit"] for m in self.doc["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.doc["per_layer"]},
                         run.PER_LAYER)

    def test_contract_limits(self):
        names = []
        for w in self.doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in self.doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in self.doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.doc["end_to_end"] + self.doc["per_layer"]:
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertRegex(m["unit"], UNIT)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        setup = [m for m in self.doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SpreadTest(unittest.TestCase):
    def test_quartile_distance_over_the_median(self):
        med, q1, q3, s = spread.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, 1.0)


class NativeSelfTest(unittest.TestCase):
    def test_percentile_rule_and_ratio_bases(self):
        self.assertTrue(run.build(), "the benchmark package does not build")
        proc = subprocess.run([os.path.join(run.BUILD, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
