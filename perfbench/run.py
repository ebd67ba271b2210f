#!/usr/bin/env python3
"""Build and run the DSig benchmark.

    python3 perfbench/run.py --workload <hinted|unhinted|catchup> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout. The benchmark executable is built
from source with dune into .bench_build/ (first run only), then run as one
process. The last line of standard output is the JSON result; with
--trace 0 it carries the end-to-end metrics (plus max_rss_mb, the child's
peak resident memory, which this wrapper measures), with --trace 1 the
per-layer metrics, and the span file is written to .bench_build/.
Exit status: 0 when every correctness check passed, 1 when a check failed,
2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "dune", "default", "perfbench", "dsigbench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", os.path.join("lib", "core", "signer.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no DSig sources here (missing %s); run from a source checkout" % need)
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    cmd = [
        "dune", "build", "--root", ROOT,
        "--build-dir", os.path.join(ROOT, BUILD_DIR, "dune"),
        "--profile", "release", "--cache", "disabled", "--display", "quiet",
        "./perfbench/dsigbench.exe",
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(ROOT, BUILD_DIR,
                                        "spans-%s-seed%d.tsv" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines or code not in (0, 1):
        fail("benchmark exited with %d" % code)
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["max_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    for l in lines[:-1]:
        print(l)
    print(json.dumps(result))
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["hinted", "unhinted", "catchup"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
