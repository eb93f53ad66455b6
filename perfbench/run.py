#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload replay|live|fleet --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to stderr. The benchmark's own output is passed
through unchanged: its last line is the JSON result, and the exit status is
non-zero when the build or any correctness check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end well inside the 180 s a single invocation may take.
RUN_TIMEOUT_S = 170


def step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        sys.exit(f"perfbench: cannot run {cmd[0]}: {err}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", BUILD_DIR, "-j", "4"])


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (names and bytes),
    so results stay attributable where there is no git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "live", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    os.makedirs(RUNS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", RUNS_DIR, "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
