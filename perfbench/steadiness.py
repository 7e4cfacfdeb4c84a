#!/usr/bin/env python3
"""Measure the benchmark's run-to-run noise and write the steadiness table.

    python3 perfbench/steadiness.py [--out FILE]

Runs perfbench/run.py --trace 0 on every workload of BENCHMARK.json, in
2 sets of 10 runs, each run with its own seed (set k uses seeds
10k+1 .. 10k+10; the workloads take turns, so a slow phase of the host
hits all of them). For every end-to-end metric it reports min, median
and max per set, the quartile distance (statistics.quantiles(n=4)) as a
share of the median, and how far the second set's median moved from the
first's, next to the metric's bound from BENCHMARK.json. Per set it also
reports the host's steal time during the runs (from /proc/stat) and the
driver's op CPU time over op wall time, which together tell a slow phase
in which the driver was descheduled from one in which it ran slower.
Host facts (nproc, CPU model, load average at start) head the table.
Run from the root of a checkout.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
OP_LINE = re.compile(r"timed ops, median ([0-9.]+) s \(cpu ([0-9.]+) s\)")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_seconds():
    """Steal time of all CPUs so far, in seconds."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0, steal0 = time.monotonic(), steal_seconds()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    wall = time.monotonic() - t0
    steal = (steal_seconds() - steal0) / wall
    if proc.returncode != 0:
        sys.exit("steadiness: %s seed %d exited %d" % (workload, seed,
                                                       proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("steadiness: %s seed %d failed its checks" % (workload,
                                                               seed))
    op = OP_LINE.search(proc.stderr)
    if not op:
        sys.exit("steadiness: %s seed %d printed no op times" % (workload,
                                                                 seed))
    cpu_share = float(op.group(2)) / float(op.group(1))
    return ({k: v["value"] for k, v in result["metrics"].items()}, wall,
            steal, cpu_share)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "STEADINESS.md"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    load = os.getloadavg()
    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())

    values = {(w, s): {m["name"]: [] for m in metrics}
              for w in workloads for s in range(SETS)}
    walls = {w: [] for w in workloads}
    steals = {(w, s): [] for w in workloads for s in range(SETS)}
    cpu_shares = {(w, s): [] for w in workloads for s in range(SETS)}
    log = []
    for s in range(SETS):
        for k in range(RUNS):
            seed = s * RUNS + k + 1
            for w in workloads:
                got, wall, steal, cpu_share = run_once(w, seed,
                                                       spec["run_seconds"])
                walls[w].append(wall)
                steals[(w, s)].append(steal)
                cpu_shares[(w, s)].append(cpu_share)
                for m in metrics:
                    values[(w, s)][m["name"]].append(got[m["name"]])
                log.append("set %d seed %2d %-15s %5.1f s  op_s %.4f  "
                           "steal %.3f  cpu/wall %.3f" %
                           (s + 1, seed, w, wall, got["op_s"], steal,
                            cpu_share))
                print(log[-1], file=sys.stderr)

    out = ["# Benchmark steadiness", "",
           "Written by `python3 perfbench/steadiness.py` (run_seconds %d)."
           % spec["run_seconds"], "",
           "Host: nproc %d; CPU %s; load average at start %.2f %.2f %.2f;"
           " started %s." % (os.cpu_count(), cpu_model(), load[0], load[1],
                             load[2], started), "",
           "Spread is the quartile distance over the median. Drift is the"
           " second set's median over the first's, minus 1, signed so that"
           " positive is worse. Bound is the metric's bound in"
           " BENCHMARK.json. Steal is the host's steal time of all CPUs"
           " during a run, in CPU-seconds per second of the run; cpu/wall"
           " is the driver thread's CPU time over wall time in its timed"
           " ops (both medians over the set's runs).", ""]
    for w in workloads:
        out += ["## %s" % w, "",
                "Wall time per run: median %.1f s, max %.1f s." %
                (statistics.median(walls[w]), max(walls[w])), ""]
        for s in range(SETS):
            out.append("Set %d: steal %.4f, cpu/wall %.4f." %
                       (s + 1, statistics.median(steals[(w, s)]),
                        statistics.median(cpu_shares[(w, s)])))
        out += ["",
                "| metric | set | min | median | max | spread | bound |",
                "|---|---|---|---|---|---|---|"]
        for m in metrics:
            for s in range(SETS):
                v = values[(w, s)][m["name"]]
                out.append("| %s (%s) | %d | %.6g | %.6g | %.6g | %.4f | %.2f |"
                           % (m["name"], m["unit"], s + 1, min(v),
                              statistics.median(v), max(v), spread(v),
                              m["bound"]))
            a = statistics.median(values[(w, 0)][m["name"]])
            b = statistics.median(values[(w, SETS - 1)][m["name"]])
            drift = (b / a - 1) * (1 if m["better"] == "lower" else -1)
            out.append("| %s drift | | | | | %+.4f | %.2f |" %
                       (m["name"], drift, m["bound"]))
        out.append("")
    out += ["## Runs", "", "Wall time, op_s, steal and cpu/wall of each run,"
            " in the order they ran.", "", "```"] + log + ["```", ""]
    with open(args.out, "w") as f:
        f.write("\n".join(out))
    print("\n".join(out))


if __name__ == "__main__":
    main()
