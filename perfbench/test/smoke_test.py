#!/usr/bin/env python3
"""Smoke self-test of the service benchmark.

Runs every workload BENCHMARK.json names in both modes, briefly and with
the 1M-session tree shrunk, and checks that the correctness gate passes,
that every metric BENCHMARK.json names for that mode is printed with its
unit and a finite value, and that the breach gate had conforming sessions
to check.

    python3 perfbench/test/smoke_test.py      # from the checkout root
"""
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        rc, out, err = run(workload, trace)
        self.assertIsNotNone(out, err[-2000:])
        self.assertEqual(rc, 0, err[-2000:])
        self.assertTrue(out["correct"], err[-2000:])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(out["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])
        if trace:
            # The breach gate judges conforming sessions only: some must
            # still be inside their envelopes when the run ends.
            self.assertGreaterEqual(
                out["metrics"]["telemetry.conforming_sessions"]["value"], 1)


def add_cases():
    for w in WORKLOADS:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (w.replace("-", "_"), trace)
            setattr(Smoke, name, lambda self, w=w, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main(verbosity=2)
