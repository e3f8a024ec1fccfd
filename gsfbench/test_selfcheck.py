#!/usr/bin/env python3
"""Self-check of the benchmark's own correctness accounting.

Run from the repository root (takes about a minute):

    python3 gsfbench/test_selfcheck.py

- A run whose reference result is deliberately perturbed must report
  the ops that reference covers as failed, on every workload.
- A traced `search` run whose warm-cache render reference alone is
  perturbed must report failed ops, all of them from the layer checks:
  the warm-cache checks can fail on their own.
- A shell that exports GSKU_EVAL_CACHE (and GSKU_THREADS, GSKU_LEDGER,
  GSKU_TRACE) must not turn `evaluate` into cache hits or add recording
  work: the driver clears the variables, so the run makes zero
  eval-cache lookups and writes neither that cache nor a ledger or
  trace file.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, *extra, env=None, seconds=2, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", str(seconds), "--trace",
         str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, env=env)
    lines = out.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


class PerturbedReference(unittest.TestCase):
    def check(self, workload, all_ops_affected=False):
        _, result = run(workload, "--perturb-reference")
        self.assertFalse(result["correct"], result)
        self.assertGreater(result["failed"], 0, result)
        if all_ops_affected:
            self.assertEqual(result["failed"], result["attempted"], result)
        else:
            # Only the ops checked against the perturbed reference fail.
            self.assertLess(result["failed"], result["attempted"], result)

    def test_evaluate(self):
        # One CI's mean is nudged by one ulp: its groups of 8 ops fail.
        self.check("evaluate")

    def test_fleet(self):
        # One of the four files' reference replay is off by one VM.
        self.check("fleet")

    def test_search(self):
        # The rank-1 row is nudged; every seed's anneal finds rank 1.
        self.check("search", all_ops_affected=True)

    def test_search_traced_render(self):
        # Only anneal seed 1's cold render is perturbed: the untraced
        # ops pass, and the traced ops of that seed fail their warm-cache
        # check.
        lines, result = run("search", "--perturb-layer-reference", trace=1)
        report = "\n".join(lines)
        layer_failed = int(
            re.search(r"layer checks failed: (\d+)", report).group(1))
        self.assertFalse(result["correct"], report)
        self.assertGreater(result["failed"], 0, report)
        self.assertEqual(result["failed"], layer_failed, report)
        self.assertLess(result["failed"], result["attempted"], report)


class PinnedEnvironment(unittest.TestCase):
    def test_exported_eval_cache_is_ignored(self):
        scratch = os.path.join(ROOT, os.environ.get(
            "CARGO_TARGET_DIR", ".bench_build"), "gsfbench", "selfcheck")
        cache = os.path.join(scratch, "evalcache")
        recorded = [os.path.join(scratch, "ledger.jsonl"),
                    os.path.join(scratch, "trace.json")]
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        env = dict(os.environ, GSKU_EVAL_CACHE=cache, GSKU_THREADS="4",
                   GSKU_LEDGER=recorded[0], GSKU_TRACE=recorded[1])
        try:
            lines, result = run("evaluate", env=env)
            report = "\n".join(lines)
            self.assertTrue(result["correct"], report)
            self.assertEqual(result["failed"], 0, report)
            self.assertRegex(report, r"cleared env:.*GSKU_EVAL_CACHE")
            self.assertIn("pool_threads: 1, eval_cache: off", report)
            deltas = dict(re.findall(r"(evalcache\.\w+)=([0-9.]+)", report))
            for name in ("evalcache.hits", "evalcache.misses",
                         "evalcache.stores"):
                self.assertEqual(float(deltas[name]), 0.0, report)
            self.assertFalse(os.path.exists(cache) and os.listdir(cache))
            for path in recorded:
                self.assertFalse(os.path.exists(path), path)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
