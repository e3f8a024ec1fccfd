#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the repository root:

    python3 gsfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--perturb-reference]

Builds gsfbench/ (which compiles the repository's libraries from src/)
into .bench_build/gsfbench, or under $CARGO_TARGET_DIR when that is set,
runs the driver once, and prints its report. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with every
end-to-end metric of BENCHMARK.json on an untraced run (--trace 0) and
every per-layer metric on a traced run (--trace 1). A per-layer metric
of a layer the workload does not run reads 0.

Exits non-zero without printing a result when the build or the run
fails, e.g. when the repository sources are not present.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"gsfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build the driver; compiler output goes to
    stderr so stdout carries only the report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "gsfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "gsfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="self-check: corrupt one op's reference result")
    parser.add_argument("--perturb-layer-reference", action="store_true",
                        help="self-check: corrupt one reference of the "
                             "traced run's layer checks")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "gsfbench")
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    command = [driver, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    if args.perturb_reference:
        command.append("--perturb-reference")
    if args.perturb_layer_reference:
        command.append("--perturb-layer-reference")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    measured = result["metrics"]
    names = {m["name"] for m in wanted}
    unknown = set(measured) - names
    missing = names - set(measured)
    if unknown:
        fail(f"driver reported metrics BENCHMARK.json lacks: {sorted(unknown)}")
    if missing and not args.trace:
        fail(f"driver did not report {sorted(missing)}")
    if not all(math.isfinite(v) for v in measured.values()):
        fail(f"driver reported a non-finite metric: {measured}")
    result["metrics"] = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
