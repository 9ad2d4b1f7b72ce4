#!/usr/bin/env python3
"""Build and run the Cello host-time benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig12|mixed|fabric --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (libcello from the checkout's own sources
plus the cello_perfbench driver) into .bench_build/perfbench, an optimized
build, then runs the driver.  Build output goes to stderr; the driver's last
stdout line is the JSON result.  Exits non-zero, without a result, when the
sources are missing or the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cello_perfbench"
RUN_TIMEOUT_S = 170


def build() -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "cello_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fig12", "mixed", "fabric"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
