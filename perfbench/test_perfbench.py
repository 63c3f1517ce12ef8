#!/usr/bin/env python3
"""The benchmark's own test: seeds, digests and the result contract.

    python3 perfbench/test_perfbench.py

Runs the benchmark through run.py with a small query count (one build,
then about a minute of runs) and checks that
- the same seed gives identical simulated-result and input digests;
- another seed gives different inputs on every paper workload;
- every run exits 0 with a correct result whose metrics are exactly the
  ones BENCHMARK.json lists, with their units.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace=0, queries=48):
    """One benchmark run; returns (digest lines, input lines, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--queries", str(queries)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited "
                             f"{proc.returncode}:\n{proc.stdout}")
    digests = {l.split()[1]: l.split()[2] for l in lines
               if l.startswith("digest ")}
    inputs = {l.split()[1]: l.split()[2] for l in lines
              if l.startswith("inputs ")}
    return digests, inputs, json.loads(lines[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class SeedTest(unittest.TestCase):
    def check_seeds(self, workload):
        digests, inputs, _ = run(workload, 1)
        again, inputs_again, _ = run(workload, 1)
        self.assertEqual(digests, again)
        self.assertEqual(inputs, inputs_again)
        _, other_inputs, _ = run(workload, 2)
        self.assertEqual(inputs.keys(), other_inputs.keys())
        for wl in inputs:
            self.assertNotEqual(inputs[wl], other_inputs[wl], wl)

    def test_long_closed_seeds(self):
        self.check_seeds("long-closed")

    def test_serving_seeds(self):
        self.check_seeds("serving")


class ContractTest(unittest.TestCase):
    def check_result(self, result, kind):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, declared(kind))

    def test_untraced_metrics(self):
        for workload in ("long-closed", "serving"):
            self.check_result(run(workload, 3)[2], "end_to_end")

    def test_traced_metrics(self):
        # paper-matrix's traced run replays every matrix cell by hand;
        # its digest must equal the untraced matrix's, which the
        # benchmark itself checks (correct would be false otherwise).
        for workload in ("paper-matrix", "long-closed", "serving"):
            self.check_result(run(workload, 3, trace=1, queries=16)[2],
                              "per_layer")


if __name__ == "__main__":
    unittest.main()
