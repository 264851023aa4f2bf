#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale.

    python3 perfbench/test_perfbench.py

Checks that every workload prints every metric of BENCHMARK.json by name
with the unit it declares (the end-to-end list with --trace 0, the
per-layer list with --trace 1), that a deliberately corrupted digest or
answer is counted as a failed op (so every gate can fail), and that the
benchmark refuses to run, printing no result, when the simulator sources
are missing.  The first test builds the benchmark if needed.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["run16_snug", "fig9_cold", "serve_mixed"]


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, extra=(), seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


class MetricsArePrinted(unittest.TestCase):
    def test_workloads_and_metric_names_match_benchmark_json(self):
        bench = bench_json()
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)
        self.assertIn("setup_s", {m["name"] for m in bench["end_to_end"]})

    def test_every_workload_prints_every_end_to_end_metric(self):
        units = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines = run(workload)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(lines[0].startswith("host: nproc="))
                result = json.loads(lines[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]), sorted(units))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        units = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines = run(workload, trace=1)
                self.assertEqual(rc, 0, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(sorted(result["metrics"]), sorted(units))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                self.assertGreater(result["metrics"]["sim.digest"]["value"], 0)
                self.assertGreater(
                    result["metrics"]["sim.run_attributed_share"]["value"], 0)


class GatesCanFail(unittest.TestCase):
    def assert_failed(self, workload, corrupt):
        rc, lines = run(workload, extra=("--corrupt", corrupt))
        self.assertEqual(rc, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        self.assertTrue(any(line.startswith("FAILED:") for line in lines))

    def test_corrupted_run16_digest_fails_an_op(self):
        self.assert_failed("run16_snug", "digest")

    def test_corrupted_fig9_digest_fails_an_op(self):
        self.assert_failed("fig9_cold", "digest")

    def test_corrupted_serve_answer_fails_an_op(self):
        self.assert_failed("serve_mixed", "answer")


class RefusesWithoutSources(unittest.TestCase):
    def test_no_result_without_the_simulator(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = run("run16_snug", root=tmp)
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
