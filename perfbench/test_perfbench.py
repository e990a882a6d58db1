#!/usr/bin/env python3
"""Steadiness self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/test_perfbench.py

- The same seed gives the same data and request sequence; another seed
  gives another sequence.
- Two traced runs with the same seed agree exactly on everything that
  is not a time: q-error percentiles, CI miss rate, counters, rates and
  allocation counts (*_kw).
- The report prints count, median and p99 for every request class.

The traced runs start the daemon, so the whole file takes a few minutes.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.SCRATCH, "selftest")
TIMED = 500
# Per-layer metrics read off a clock; everything else must repeat exactly.
TIMED_UNITS = ("us", "s")
TIMED_RATIOS = ("obs.trace_coverage", "obs.trace_overhead_frac")
REPORT_LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")
CLASS_LINE = re.compile(r"^  (read|write|admin)\s+\S+\s+n=\s*\d+\s+p50=\s*[\d.]+ us\s+p99=\s*[\d.]+ us$")


def setUpModule():
    run.build([run.CLI])
    os.makedirs(SCRATCH, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def pack(src, dst):
    subprocess.run([os.path.abspath(run.CLI), "pack", src, dst], check=True,
                   stdout=subprocess.DEVNULL)


def inputs(name, seed):
    """(hash of the data files, request lines) for one workload and seed."""
    datadir = os.path.join(SCRATCH, f"{name}-{seed}")
    shutil.rmtree(datadir, ignore_errors=True)
    os.makedirs(datadir)
    wl = workloads.WORKLOADS[name](seed, datadir, pack)
    lines = [r["line"] for r in wl.warmup() + wl.requests("timed", TIMED)]
    digest = hashlib.sha256()
    for _, path in sorted(wl.bindings):
        with open(os.path.join(datadir, path), "rb") as f:
            digest.update(f.read())
    shutil.rmtree(datadir)
    return digest.hexdigest(), lines


def traced(name, seed):
    """Exact-valued metrics of one traced run, plus its report lines."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", "5", "--trace", "1"],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    exact = {}
    for key, value in result["metrics"].items():
        if value["unit"] not in TIMED_UNITS and key not in TIMED_RATIOS:
            exact[key] = value["value"]
    for line in lines:
        match = REPORT_LINE.match(line)
        if match and match.group(1) in ("qerr_p50", "qerr_p95", "ci_miss_rate"):
            exact[match.group(1)] = match.group(2)
    return proc.returncode, result, exact, lines


class Sequences(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, again, other = inputs(name, 5), inputs(name, 5), inputs(name, 6)
                self.assertEqual(first, again)
                self.assertNotEqual(first[1], other[1])
                self.assertNotEqual(first[0], other[0])


class TracedRuns(unittest.TestCase):
    def test_traced_runs_repeat_exactly(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                code1, result1, exact1, lines = traced(name, 3)
                code2, result2, exact2, _ = traced(name, 3)
                self.assertEqual((code1, code2), (0, 0))
                self.assertTrue(result1["correct"] and result2["correct"], lines[-40:])
                for key in ("qerr_p50", "qerr_p95", "ci_miss_rate", "gc.alloc_kw_per_req",
                            "core.tuples_scanned_per_req", "serve.plan_cache_hit_rate"):
                    self.assertIn(key, exact1)
                self.assertEqual(exact1, exact2)
                classes = [line for line in lines if CLASS_LINE.match(line)]
                self.assertGreaterEqual(len(classes), 2, "per-class latency table missing")


if __name__ == "__main__":
    unittest.main(verbosity=2)
