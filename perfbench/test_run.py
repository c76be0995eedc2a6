#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the repository:

    python3 perfbench/test_run.py

Builds the benchmark (as run.py does), runs the C++ selftest of the
percentile rule, schedule determinism and result record, and checks the
result-line schema and that BENCHMARK.json and run.py name the same metrics.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class ResultLine(unittest.TestCase):
    def result(self, **kw):
        r = {"workload": "serve", "correct": True, "attempted": 10, "failed": 0,
             "metrics": [{"name": "setup_s", "value": 0.5, "unit": "s", "n": 5, "note": ""},
                         {"name": "extra", "value": 1.0, "unit": "ms", "n": 1, "note": ""}],
             "checks": [], "provenance": {}}
        r.update(kw)
        return r

    def test_exact_keys(self):
        line, missing = run.final_line(self.result(), ["setup_s"])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {"setup_s": {"value": 0.5, "unit": "s"}})
        self.assertTrue(line["correct"])
        self.assertEqual(missing, [])
        json.loads(json.dumps(line))

    def test_missing_metric_is_incorrect(self):
        line, missing = run.final_line(self.result(), ["setup_s", "peak_rss_mb"])
        self.assertFalse(line["correct"])
        self.assertEqual(missing, ["peak_rss_mb"])

    def test_failed_check_is_incorrect(self):
        line, _ = run.final_line(self.result(correct=False, failed=2), ["setup_s"])
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 2)

    def test_alias_takes_result_name_and_unit(self):
        line, missing = run.final_line(self.result(), ["setup_s", "throughput"],
                                       {"throughput": "extra"})
        self.assertEqual(missing, [])
        self.assertEqual(line["metrics"]["throughput"], {"value": 1.0, "unit": "1/s"})
        self.assertNotIn("extra", line["metrics"])


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(run.ALIASES), set(run.WORKLOADS))

    def test_metrics_match(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        layer = {m["name"]: m for m in self.bench["per_layer"]}
        self.assertEqual(list(e2e), run.END_TO_END)
        self.assertEqual(list(layer), run.PER_LAYER)
        for name, unit in run.UNITS.items():
            self.assertEqual({**e2e, **layer}[name]["unit"], unit)
        for aliases in run.ALIASES.values():
            self.assertLessEqual(set(aliases), set(e2e) | set(layer))
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)


class NativeSelftest(unittest.TestCase):
    def test_selftest_binary(self):
        run.build()
        out = subprocess.run([run.SELFTEST], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stdout)


if __name__ == "__main__":
    unittest.main()
