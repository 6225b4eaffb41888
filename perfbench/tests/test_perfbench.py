"""Tests of the repo benchmark at tiny sizes (stdlib only).

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; the first test builds the binary into
.bench_build/ the way perfbench/run.py always does.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("oneshot-algo2", "oneshot-brc-large", "churn-composed")
# Tiny instances: a few hundred milliseconds per operation.
TINY = ["--n", "512", "--epochs", "2", "--seconds", "0.2"]


def bench(workload, seed=1, trace=0, extra=(), env=None):
    """Runs run.py; returns (exit code, metadata, result) — None when absent."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + TINY + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False, env=dict(os.environ, **(env or {})))
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return (proc.returncode, json.loads(lines[-2])["perfbench"],
            json.loads(lines[-1]))


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class SmokeTest(unittest.TestCase):
    def check_result(self, rc, meta, result, section):
        self.assertEqual(rc, 0)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], meta["errors"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(meta["ops_failed_frac"], 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared(section))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_end_to_end_metric_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, meta, result = bench(workload)
                self.check_result(rc, meta, result, "end_to_end")
                self.assertTrue(meta["setup_digests_agree"])
                self.assertGreater(result["metrics"]["estimate_ms"]["value"], 0)
                self.assertLessEqual(meta["threads"]["peak"],
                                     meta["threads"]["nproc"])

    def test_every_per_layer_metric_on_every_workload(self):
        # correct == true also means the decomposition oracle held on every
        # traced operation and each rollup added up to its wall time.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, meta, result = bench(workload, trace=1)
                self.check_result(rc, meta, result, "per_layer")
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(m["protocols.count_run_ms"], 0)
                self.assertGreaterEqual(m["trace.unattributed_frac"], 0)
                self.assertLess(m["trace.unattributed_frac"], 0.05)


class FailureTest(unittest.TestCase):
    def test_unmeetable_band_fails_every_operation(self):
        for workload in ("oneshot-algo2", "churn-composed"):
            with self.subTest(workload=workload):
                rc, meta, result = bench(workload, extra=["--band", "50,60"])
                self.assertEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(meta["ops_failed_frac"], 1)

    def test_thread_budget_is_enforced(self):
        too_many = str((os.cpu_count() or 1) + 1)
        rc, _, result = bench("oneshot-algo2",
                              env={"OMP_NUM_THREADS": too_many})
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)

    def test_rollup_self_test(self):
        bench("oneshot-algo2")  # builds the binary if needed
        proc = subprocess.run([BINARY, "--self-test"], check=False,
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a, _ = bench(workload, seed=7)
                _, b, _ = bench(workload, seed=7)
                _, c, _ = bench(workload, seed=8)
                _, traced, _ = bench(workload, seed=7, trace=1)
                self.assertEqual(a["digest_ops"], b["digest_ops"])
                self.assertEqual(a["digest"], b["digest"])
                self.assertNotEqual(a["digest"], c["digest"])
                # A traced run judges the same operations.
                self.assertEqual(traced["digest"], a["digest"])


if __name__ == "__main__":
    unittest.main()
