#!/usr/bin/env python3
"""Build and run the dcnas benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
library and the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. Every run first runs the
benchmark's own tests, then one workload in $CARGO_TARGET_DIR/run, its
scratch directory. Each workload's parameters are constants in its own
source file; perfbench/workloads.json describes them. The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}, with every end-to-end metric of BENCHMARK.json (--trace 0) or
every per-layer metric (--trace 1).
Exits non-zero when the build, a test, an output check or the result's
shape fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_checked(cmd, timeout, what):
    """Runs a build or test step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no dcnas source tree at {ROOT}; run from a repository checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, "configure")
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", out, "-j", jobs, "--target", "dcnas_perfbench",
                 "perfbench_selftest"], BUILD_TIMEOUT_S, "build")
    run_checked([os.path.join(out, "perfbench_selftest"), "--gtest_brief=1"],
                RUN_TIMEOUT_S, "benchmark self-test")
    return out


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_result(line, spec, traced):
    """Fails unless the result line has the contract's shape and metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark's last line is not a JSON result", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)} are not the contract's", 1)
    wanted = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"or units differ", 1)
    if result["attempted"] < 1:
        fail("no operation was attempted", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run only the benchmark's own tests")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json is missing")
    out = build()
    if args.selftest:
        return 0
    spec = load_json(spec_path)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    cmd = [os.path.join(out, "dcnas_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    work_dir = os.path.join(out, "run")
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=work_dir, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    # Everything but the result goes to stdout first, so the result stays last.
    print("\n".join(lines[:-1]))
    if proc.returncode not in (0, 1):
        fail(f"the benchmark exited with {proc.returncode}")
    check_result(lines[-1], spec, args.trace == 1)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
