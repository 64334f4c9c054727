#!/usr/bin/env python3
"""Build and run the NSYNC fleet benchmark.

    python3 fleetbench/run.py --workload saturate|paced-wire \
        --seed N --seconds S --trace 0|1
    python3 fleetbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
library, the fleet_daemon and the fleetbench program from source into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed.  Build output goes to stderr, so the last line of stdout is the
result JSON printed by fleetbench.  See fleetbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("saturate", "paced-wire")


def build(build_dir):
    """Configure (once) and build; returns the fleetbench binary's directory."""
    out = os.path.join(build_dir, "fleetbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        out = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"fleetbench: build failed: {e}", file=sys.stderr)
        return 1

    binary = os.path.join(out, "fleetbench")
    cmd = [binary, "--work-dir", os.path.join(build_dir, "run")]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--daemon", os.path.join(out, "fleet_daemon")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
