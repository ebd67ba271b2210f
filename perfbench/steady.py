#!/usr/bin/env python3
"""Measure the run-to-run spread of the DSig benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds 15] [--pause 0]

Runs every workload --runs times with --trace 0, alternating workloads so
that host drift lands on all of them alike, each run with its own seed
(1, 2, ...), sleeping --pause seconds between runs so the runs spread over
minutes. Prints, per workload and metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread: (q3 - q1) / median.
The bounds in BENCHMARK.json are set from these spreads. The raw results
are also written to .bench_build/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hinted", "unhinted", "catchup"]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    wall = time.time() - t0
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr.decode())
        raise SystemExit("%s seed %d failed with exit %d" % (workload, seed, r.returncode))
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(r.stderr.decode())
        raise SystemExit("%s seed %d: a correctness check failed" % (workload, seed))
    return res, wall, r.stderr.decode()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--pause", type=float, default=0)
    args = p.parse_args()
    values = {w: {} for w in WORKLOADS}
    raw = []
    for i in range(args.runs):
        order = WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            seed = i + 1
            res, wall, log = one_run(w, seed, args.seconds)
            raw.append({"workload": w, "seed": seed, "at": time.time(), "wall_s": wall,
                        "result": res, "stderr": log})
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %d %-8s seed %d: %.0f s, failed %d/%d" % (
                i, w, seed, wall, res["failed"], res["attempted"]), file=sys.stderr, flush=True)
            if args.pause:
                time.sleep(args.pause)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_build", "steady-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump(raw, f)
    print("%-9s %-32s %14s %14s %14s %8s" % ("workload", "metric", "median", "q1", "q3", "spread"))
    for w in WORKLOADS:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("nan")
            print("%-9s %-32s %14.4f %14.4f %14.4f %8.3f" % (w, name, med, q1, q3, spread))
    print("raw results: %s" % out, file=sys.stderr)


if __name__ == "__main__":
    main()
