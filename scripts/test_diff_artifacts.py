#!/usr/bin/env python3
"""Tests for scripts/diff_artifacts.py --digest, the golden-digest gate.

    python3 scripts/test_diff_artifacts.py

Checks that an artifact's digest
- ignores the host fields (host_wall_ms at any depth; host, threads,
  git_sha and build_flags at the top level);
- ignores key order;
- moves on a one-cycle change in one nested cell;
- is keyed by the artifact's file name, not its ``bench`` field.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "diff_artifacts.py")

ARTIFACT = {
    "bench": "fig07_speedup",
    "schema_version": 3,
    "host": {"hostname": "a", "cpus": 4},
    "threads": 4,
    "git_sha": "1e4e439",
    "build_flags": "Release",
    "host_wall_ms": 812.5,
    "workloads": [
        {"workload": "dpdk", "host_wall_ms": 10.25,
         "schemes": {"CHA-TLB": {"cycles": 123456, "queries": 2000,
                                 "speedup": 2.5}}},
        {"workload": "jvm", "host_wall_ms": 30.5,
         "schemes": {"CHA-TLB": {"cycles": 654321, "queries": 2400,
                                 "speedup": 1.75}}},
    ],
}


def reordered(node):
    """``node`` with every object's keys in reverse order."""
    if isinstance(node, dict):
        return {k: reordered(node[k]) for k in reversed(list(node))}
    if isinstance(node, list):
        return [reordered(v) for v in node]
    return node


class DigestTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc, subdir=""):
        path = os.path.join(self.tmp.name, subdir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
        return path

    def run_digest(self, *paths):
        return subprocess.run([sys.executable, SCRIPT, "--digest", *paths],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)

    def digests(self, *paths):
        proc = self.run_digest(*paths)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout)

    def digest_of(self, doc):
        return self.digests(self.write("BENCH_x.json", doc))["BENCH_x.json"]

    def test_host_fields_keep_the_digest(self):
        want = self.digest_of(ARTIFACT)
        for key, value in (("host", {"hostname": "b", "cpus": 64}),
                           ("threads", 1), ("git_sha", "0000000"),
                           ("build_flags", "Debug"),
                           ("host_wall_ms", 1.0)):
            doc = copy.deepcopy(ARTIFACT)
            doc[key] = value
            self.assertEqual(self.digest_of(doc), want, key)
        doc = copy.deepcopy(ARTIFACT)
        doc["workloads"][1]["host_wall_ms"] = 99.0
        self.assertEqual(self.digest_of(doc), want, "nested host_wall_ms")

    def test_key_order_keeps_the_digest(self):
        self.assertEqual(self.digest_of(reordered(ARTIFACT)),
                         self.digest_of(ARTIFACT))

    def test_one_cycle_moves_the_digest(self):
        doc = copy.deepcopy(ARTIFACT)
        doc["workloads"][1]["schemes"]["CHA-TLB"]["cycles"] += 1
        self.assertNotEqual(self.digest_of(doc), self.digest_of(ARTIFACT))

    def test_file_name_is_the_key(self):
        # A --faults run's artifact carries the clean one's bench name.
        faulted = copy.deepcopy(ARTIFACT)
        faulted["workloads"][0]["schemes"]["CHA-TLB"]["cycles"] += 7
        got = self.digests(
            self.write("BENCH_fig07_speedup.json", ARTIFACT),
            self.write("BENCH_FAULT_fig07_speedup.json", faulted))
        self.assertEqual(sorted(got), ["BENCH_FAULT_fig07_speedup.json",
                                       "BENCH_fig07_speedup.json"])
        self.assertNotEqual(got["BENCH_FAULT_fig07_speedup.json"],
                            got["BENCH_fig07_speedup.json"])
        clash = self.run_digest(self.write("BENCH_x.json", ARTIFACT, "a"),
                                self.write("BENCH_x.json", ARTIFACT, "b"))
        self.assertEqual(clash.returncode, 2)
        self.assertIn("BENCH_x.json", clash.stderr)


if __name__ == "__main__":
    unittest.main()
