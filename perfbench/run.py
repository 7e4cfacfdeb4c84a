#!/usr/bin/env python3
"""Build and run the NDA-simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the simulator library from src/) in Release
mode into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only check that the build is current. Build output goes to stderr,
so the last line of stdout is the driver's JSON result, which this
script checks against the metric lists in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: error: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    work = os.path.join(build_dir(), "work")
    golden = os.path.join(ROOT, "tests", "golden", "fig07_grid_smoke.csv")
    if args.self_test:
        exe = build("perfbench_selftest")
        os.makedirs(work, exist_ok=True)
        sys.exit(subprocess.run([exe, "--golden", golden, "--work", work])
                 .returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    expected = expected_metrics(args.trace)
    exe = build("perfbench")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", golden, "--work", work, "--trace-out",
           os.path.join(traces, "%s-seed%d.json" % (args.workload,
                                                    args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no JSON result")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("driver metrics do not match BENCHMARK.json: missing %s, "
             "unexpected %s" % (sorted(set(expected) - set(got)),
                                sorted(set(got) - set(expected))))
    print(proc.stdout, end="")


if __name__ == "__main__":
    main()
