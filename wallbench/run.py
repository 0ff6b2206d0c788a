#!/usr/bin/env python3
"""Builds and runs the PERSEAS wall-clock benchmark.

    python3 wallbench/run.py --workload <debit-credit|bulk-64k|restart> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(wallbench/Cargo.toml) built in release mode into $CARGO_TARGET_DIR
(default: .bench_build). Its standard output is passed through; the last
line is the JSON result. The exit code is non-zero when the build fails,
a correctness check fails, or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("debit-credit", "bulk-64k", "restart")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("wallbench: build failed")

    exe = os.path.join(target, "release", "perseas-wallbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"wallbench: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        sys.exit(f"wallbench: malformed result line ({e})")
    if run.returncode != 0 or result["correct"] is not True:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
