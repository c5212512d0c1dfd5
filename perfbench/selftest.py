"""Self-test of the benchmark: every workload at a tiny size, and every
output check shown to reject a corrupted output.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import run

run.load_program()

import oracle  # noqa: E402
import workloads  # noqa: E402

TINY_LEG = (1, 3, Fraction(1, 4))


class TinyWorkloads(unittest.TestCase):
    def test_grid_verify(self):
        tally = workloads.run_grid(0, legs=(TINY_LEG,))
        self.assertEqual((tally.attempted, tally.failed), (540, 0), tally.errors)

    def test_random_workloads(self):
        for name in ("plan-serve", "classify"):
            tally = workloads.run_stream(name, 7, 0, pass_ops=20)
            self.assertEqual((tally.attempted, tally.failed), (20, 0), tally.errors)

    def test_traced_counters_repeat(self):
        runs = [workloads.trace_grid(legs=(TINY_LEG,), profiled_leg=TINY_LEG,
                                     overhead_leg=TINY_LEG)
                for _ in range(2)]
        self.assertEqual(runs[0].counters["planner.plans"], 540)
        for name in ("plan-serve", "classify"):
            runs += [workloads.trace_stream(name, 7, ops=20) for _ in range(2)]
        for first, again in zip(runs[::2], runs[1::2]):
            self.assertEqual(first.tally.failed, 0, first.tally.errors)
            self.assertEqual(first.counters, again.counters)
            self.assertGreater(first.fractions_self_share, 0)
        self.assertEqual(runs[2].counters["planner.plans"], 20)
        layers = runs[2].tracer.layers()
        self.assertEqual(layers["cli.main"]["calls"], 20)
        self.assertGreater(layers["cli.main"]["busy_s"], layers["cli.main"]["self_s"])


class ChecksRejectCorruptOutput(unittest.TestCase):
    def test_altered_t(self):
        request = next(r for r in oracle.plan_requests(random.Random(3))
                       if r[1] != r[2])
        code, out, _ = workloads._call_cli(oracle.plan_argv(request))
        self.assertIsNone(oracle.check_plan(request, code, out))
        payload = json.loads(out)
        step = payload["steps"][-1]
        step["t"] = oracle.rational(Fraction(step["t"]) * Fraction(1001, 1000))
        self.assertIsNotNone(oracle.check_plan(request, code, json.dumps(payload)))

    def test_wrong_chamber_and_dropped_label(self):
        point = (2, Fraction(7, 2), Fraction(1, 3))
        chamber = oracle.chamber_index(*point[1:])
        labels = oracle.stratum_labels(point[1], point[2], point[0])
        self.assertIsNone(oracle.check_classify(point, chamber, [], labels, None))
        self.assertIsNotNone(oracle.check_classify(point, chamber + 1, [], labels, None))
        self.assertIsNotNone(oracle.check_classify(point, chamber, [], labels[:-1], None))

    def test_grid_counts_and_bytes(self):
        code, out, _ = workloads._call_cli(workloads.grid_argv(*TINY_LEG))
        digest = workloads.GRID_DIGESTS[TINY_LEG]
        self.assertIsNone(oracle.check_grid(*TINY_LEG, code, out, digest))
        altered = out.replace('"passed": ', '"passed": 1', 1)
        self.assertIsNotNone(oracle.check_grid(*TINY_LEG, code, altered, digest))
        payload = json.loads(out)
        payload["chambers"][0]["checked"] += 1
        payload["chambers"][0]["passed"] += 1
        text = json.dumps(payload)
        new_digest = hashlib.sha256(text.encode()).hexdigest()
        self.assertIsNotNone(oracle.check_grid(*TINY_LEG, code, text, new_digest))


class Contract(unittest.TestCase):
    def _run(self, cwd: Path):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "classify",
             "--seed", "1", "--seconds", "0.5", "--trace", "0"],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_last_line_is_the_result(self):
        proc = self._run(run.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in bench["end_to_end"]})

    def test_fails_without_the_program(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = self._run(bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
