#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload tune|fleet|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The last line of standard output is the binary's JSON result (see
README.md). `--workload all` runs the three workloads one after another,
each in its own process. The build goes to .bench_build/ at the root of
the checkout; build logs go to standard error. Extra flags (--tiny,
--corrupt-response K) are passed through to the binary.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("tune", "fleet", "serve")
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the binary; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return BUILD_DIR / "perfbench"


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_one(binary, workload, args, extra):
    spans = BUILD_DIR / f"spans-{workload}-{args.seed}.jsonl"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-out", str(spans), "--commit", commit()] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    binary = build()
    if binary is None:
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = run_one(binary, workload, args, extra) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
