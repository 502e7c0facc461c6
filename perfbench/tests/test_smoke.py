"""Smoke mode of the benchmark: tiny sizes, every workload, both modes.

Checks that every metric BENCHMARK.json names is printed with its unit,
that the result object has exactly the keys correct, attempted, failed and
metrics, and that a deliberately corrupted artifact or result frame fails
the correctness check.

    cd perfbench && PERFBENCH_BIN=$PWD/../.bench_build/perfbench \
        python3 -m unittest -v tests.test_smoke

(`ctest --test-dir .bench_build` runs it with PERFBENCH_BIN set).
"""

import json
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
WORKLOADS = ["sweep-fig1", "fabric-fig1-crash", "svc-fig2-avoid"]


def run(workload, trace, *extra):
    binary = os.environ["PERFBENCH_BIN"]
    work = os.path.join(os.path.dirname(binary), "work-smoke")
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", "7",
             "--seconds", "0.5", "--trace", str(trace), "--workdir", work,
             "--smoke", *extra],
            capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(BENCHMARK) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float), m["name"])

    def test_every_metric_is_printed_with_its_unit(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, self.spec[key])
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corruption_fails_the_correctness_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 0, "--corrupt")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("CHECK FAILED", proc.stderr)


if __name__ == "__main__":
    unittest.main()
