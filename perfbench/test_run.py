"""Tests of the benchmark driver's own logic (python3 perfbench/run.py --self-test)."""

import json
import os
import re
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ParseResultTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = ('{"nproc": 4}\n{"detail": {}}\n'
               '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n')
        self.assertEqual(run.parse_result(out)["attempted"], 3)

    def test_missing_or_extra_keys_are_rejected(self):
        self.assertIsNone(run.parse_result('{"correct": true}\n'))
        self.assertIsNone(run.parse_result(
            '{"correct": true, "attempted": 1, "failed": 0, "metrics": {},'
            ' "x": 1}\n'))
        self.assertIsNone(run.parse_result("not json\n"))
        self.assertIsNone(run.parse_result(""))


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_the_checker(self):
        med, q1, q3, rel = run.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(rel, 1.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(run.spread([7.0] * 10)[3], 0.0)


class BenchmarkSpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_time_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_workloads_are_the_programs(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["mail_day", "market_month", "crash_recovery"])
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


if __name__ == "__main__":
    unittest.main()
