#!/usr/bin/env python3
"""Build and run one end-to-end crawl workload.

    python3 perfbench/run.py --workload resume-inline --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (and with it the
library under src/) with CMake in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the histwalk_e2e binary with
the reference digests committed in perfbench/expected.txt. Its output is
passed through: an "env" line with the environment stamp (nproc, build
type, compiler, commit, seed, 1-minute load average), and last the result
JSON. Exits non-zero when the build fails, an output is wrong, or the
binary does not finish within the time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resume-inline", "cold-pipelined", "remote-tenants")
EXPECTED = os.path.join(HERE, "expected.txt")


def run_timeout(seconds):
    """The work grows with --seconds (a round per two seconds); allow prep
    plus five times the nominal length before giving up."""
    return 60 + 5 * seconds


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "sampler.h")):
        fail(f"no histwalk sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "histwalk_e2e")


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", results, "--commit", commit(),
               "--expected", EXPECTED]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"histwalk_e2e did not finish within {timeout} s")
    # The binary's stdout is passed through; its last line stays the
    # result JSON.
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
