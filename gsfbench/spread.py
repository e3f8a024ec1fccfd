#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, per workload.

Usage, from the repository root:

    python3 gsfbench/spread.py [--runs 10] [--first-seed 1] \
        [--seconds <s>] [workload ...]

Runs gsfbench/run.py once per seed (seeds first-seed, first-seed+1, ...)
on each workload (default: every workload in BENCHMARK.json) and prints,
per end-to-end metric, the median of the runs and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound. Fails if any run is incorrect or has a failed op.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: INCORRECT {result}")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            print(f"  {workload:12s} {metric['name']:14s} median "
                  f"{statistics.median(v):12.5g}  spread {spread:6.3f}  "
                  f"bound {metric['bound']}  "
                  f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
