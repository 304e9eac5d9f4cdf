#!/usr/bin/env python3
"""Builds the benchmark from the checkout it lives in and runs one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 12 --trace 0

Workloads: solve, serve, ingest, cluster (see perfbench/README.md). The
build goes to $CARGO_TARGET_DIR when set (relative paths resolve against
the checkout root), else to .bench_build; concurrent runs serialize on a
lock while building. Each run works in its own directory under
<build>/runs/, named by pid, workload and seed, and removes it on exit; the
run record and any trace land in <build>/records/. Build output goes to
standard error, so the last line of standard output is the result JSON.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("solve", "serve", "ingest", "cluster")
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(
        build_dir, "runs", f"{os.getpid()}-{args.workload}-{args.seed}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir,
               "--outdir", os.path.join(build_dir, "records")]
    # SIGTERM unwinds through the finally below, so the benchmark process
    # never outlives this one.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran over {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
