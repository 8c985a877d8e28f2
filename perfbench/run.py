#!/usr/bin/env python3
"""Build the pimecc benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_table1 --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/CMakeLists.txt (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset, then runs the perfbench binary.  Its last stdout line is the result
JSON; this script prints it last as well and exits with the binary's code.

A traced run also prints its own end-to-end numbers on a
`traced_end_to_end` line; compare them with an untraced run of the same
seed to see the tracing overhead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("run_table1", "mixed_batch", "fleet_campaign")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def git_sha():
    """HEAD's commit id, or 'none' outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        run = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (subprocess.SubprocessError, OSError):
        return "none"
    return run.stdout.strip() if run.returncode == 0 else "none"


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"the pimecc sources are missing under {ROOT}; nothing to build")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work_dir = os.path.join(ROOT, target, "perfbench")
    build_dir = os.path.join(work_dir, "build")
    try:
        build(build_dir)
    except (subprocess.SubprocessError, OSError) as error:
        log(f"build failed: {error}")
        return 2

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", os.path.join(work_dir, "traces"),
               "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(run.stdout, end="")
        log(f"perfbench printed no result (exit code {run.returncode})")
        return run.returncode or 3
    for line in lines[:-1]:
        print(line)

    listed = listed_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(listed):
        log("perfbench's metrics differ from BENCHMARK.json")
        return 3
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
