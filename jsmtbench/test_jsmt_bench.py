#!/usr/bin/env python3
"""Smoke tests of the jsmt benchmark at tiny scale.

    python3 jsmtbench/test_jsmt_bench.py

Builds the driver the way run.py does, then checks for every
workload that each metric named in BENCHMARK.json is printed with a
valid value and its unit, that another seed changes the simulated
totals, and that work-changing JSMT_* variables are refused.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)

# Small enough to finish in seconds, large enough that every pair
# still reaches its completion count.
TINY_SCALE = {"solo-sweep": 0.01, "paper-pairs": 0.004,
              "chip-pairs": 0.005}


class JsmtBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        os.makedirs(run.build_dir(), exist_ok=True)
        cls.out = tempfile.mkdtemp(prefix="test-out-",
                                   dir=run.build_dir())

    def bench(self, workload, seed=1, trace=0, env=None):
        """Run one tiny round; return (exit code, stdout lines)."""
        command = [self.binary, "--workload", workload,
                   "--seed", str(seed), "--seconds", "0.001",
                   "--trace", str(trace),
                   "--scale", str(TINY_SCALE[workload]),
                   "--repo-root", run.ROOT, "--out-dir", self.out]
        result = subprocess.run(command, capture_output=True,
                                text=True, timeout=170,
                                env=env)
        return result.returncode, result.stdout.splitlines()

    def check_result(self, lines, wanted):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in wanted})
        for metric in wanted:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"],
                             metric["name"])
            value = entry["value"]
            self.assertIsInstance(value, (int, float), metric["name"])
            self.assertTrue(math.isfinite(value), metric["name"])
            self.assertIn("metric %s " % metric["name"],
                          "\n".join(lines))
        return result

    def totals(self, lines):
        return [line for line in lines if line.startswith("totals ")]

    def test_every_workload_prints_every_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                code, lines = self.bench(workload, trace=0)
                self.assertEqual(code, 0, lines)
                result = self.check_result(lines, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][metric["name"]]["value"], 0)
                self.assertTrue(any(line.startswith("provenance ")
                                    for line in lines))

                code, lines = self.bench(workload, trace=1)
                self.assertEqual(code, 0, lines)
                self.check_result(lines, SPEC["per_layer"])

    def test_another_seed_changes_simulated_totals(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                _, first = self.bench(workload, seed=1)
                _, again = self.bench(workload, seed=1)
                _, other = self.bench(workload, seed=2)
                self.assertEqual(self.totals(first),
                                 self.totals(again))
                self.assertEqual(len(self.totals(first)), 1)
                self.assertNotEqual(self.totals(first),
                                    self.totals(other))

    def test_refuses_work_changing_environment(self):
        for name, value in [("JSMT_RUN_CACHE", "cache.json"),
                            ("JSMT_FAULT_PLAN", "task-fail:pair/*")]:
            with self.subTest(variable=name):
                env = dict(os.environ, **{name: value})
                code, lines = self.bench("solo-sweep", env=env)
                self.assertEqual(code, 2)
                self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
