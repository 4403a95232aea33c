#!/usr/bin/env python3
"""Smoke tests of the pipeline benchmark: every workload, both modes.

Run from the root of a checkout:  python3 perfbench/test_run.py
Each case runs the benchmark with --smoke (tiny inputs, one round, every
correctness check) and checks the result line against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run_bench(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        meta = json.loads(lines[-2])["meta"]
        for key in ("nproc", "compiler", "build_type", "seed", "txns",
                    "log_ops"):
            self.assertIn(key, meta)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-4000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_unknown_workload_fails_without_result(self):
        proc = run_bench("--workload", "nope", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
