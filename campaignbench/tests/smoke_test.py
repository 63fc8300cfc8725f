#!/usr/bin/env python3
"""Smoke test of the campaign benchmark, at tiny campaign sizes.

    python3 campaignbench/tests/smoke_test.py

Runs every workload once measured (--trace 0) and once traced (--trace 1),
checks that the result line names exactly the metrics BENCHMARK.json
declares, with their units, and that a wrong pinned digest is counted as
failed fault runs. Takes under a minute after the first build.
"""
import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "campaignbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_build" / "campaignbench-smoke"


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output (exit {proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


class SmokeTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, out = run(w["name"], trace)
                    self.assertEqual(code, 0, out)
                    self.check_result(result, declared)
                    self.assertTrue(result["correct"], out)
                    self.assertEqual(result["failed"], 0, out)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_digest_mismatch_counts_as_failed(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        wrong = SCRATCH / "wrong-digests.tsv"
        # Benchmark seed 1 runs campaign seeds 4..7.
        wrong.write_text("".join(
            f"many-short-faults tiny {c} {'0' * 32} -\n" for c in range(4, 8)))
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            with self.subTest(trace=trace):
                code, result, out = run("many-short-faults", trace,
                                        "--digests", str(wrong))
                self.assertNotEqual(code, 0)
                self.check_result(result, declared)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)
                self.assertIn("FAILED", out)


if __name__ == "__main__":
    unittest.main()
