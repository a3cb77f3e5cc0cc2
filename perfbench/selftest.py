#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. The output-correctness gate trips: each workload is run briefly with a
   deliberately wrong reference (histwalk_e2e --corrupt-reference 1), and
   must exit non-zero with "correct": false and every session counted as
   failed.
2. The committed-digest check trips: a run whose expected.txt lists a
   wrong digest for its seed fails the same way.
3. The compare verdicts follow the rule in README.md on made-up result
   pairs, and "improved" needs interleaved recording.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("resume-inline", "cold-pipelined", "remote-tenants")


def check_gate_trips(binary, workload, extra):
    command = [binary, "--workload", workload, "--seed", "1", "--seconds",
               "1", "--trace", "0", "--out-dir",
               os.path.dirname(binary)] + extra
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if not lines:
        return ["no result printed"]
    result = json.loads(lines[-1])
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0")
    if result["correct"]:
        problems.append('"correct": true')
    if result["failed"] != result["attempted"] or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    if result["metrics"]["ok_frac"]["value"] != 0:
        problems.append("ok_frac is not 0")
    return problems


def check_verdicts():
    seeds = range(1, 11)
    parent = {s: 100.0 + s % 3 for s in seeds}  # quartiles about 100..102
    cases = [
        ("improved", {s: 120.0 + s % 3 for s in seeds}, "higher", 0.1),
        ("no worse", {s: 99.0 + s % 3 for s in seeds}, "higher", 0.1),
        ("worse", {s: 80.0 + s % 3 for s in seeds}, "higher", 0.1),
        ("improved", {s: 80.0 + s % 3 for s in seeds}, "lower", 0.1),
        # Parent spread (about 2%) above a 1% bound: unresolved...
        ("unresolved", {s: 99.5 + s % 3 for s in seeds}, "higher", 0.01),
        # ...unless every change run beats every parent run.
        ("no worse", {s: 102.5 + s % 3 / 10 for s in seeds}, "higher", 0.01),
    ]
    problems = []
    for expected, change, better, bound in cases:
        got, _ = stats.verdict(parent, change, better, bound)
        if got != expected:
            problems.append(f"expected {expected}, got {got} "
                            f"(better={better}, bound={bound})")

    def records(seqs):
        return {s: {"order": {"recording": "r", "seq": q}}
                for s, q in zip(seeds, seqs)}
    # Seed by seed, alternating which went first: interleaved.
    alternating = [2 * i + (i % 2) for i in range(10)]
    if not stats.interleaved(records(alternating),
                             records([q ^ 1 for q in alternating])):
        problems.append("alternating pairs not taken as interleaved")
    # One whole set after the other: not interleaved.
    if stats.interleaved(records(range(10)), records(range(10, 20))):
        problems.append("back-to-back sets taken as interleaved")
    # Always the same one first: not interleaved.
    if stats.interleaved(records(range(0, 20, 2)), records(range(1, 20, 2))):
        problems.append("same-order pairs taken as interleaved")
    return problems


def main():
    binary = run.build(run.build_dir())
    wrong = os.path.join(os.path.dirname(binary), "expected-wrong.txt")
    with open(wrong, "w") as f:
        f.write("".join(f"{w} 1 0123456789abcdef\n" for w in WORKLOADS))
    checks = [("verdict rule", check_verdicts())]
    for w in WORKLOADS:
        checks.append((f"gate trips on {w}", check_gate_trips(
            binary, w, ["--expected", run.EXPECTED,
                        "--corrupt-reference", "1"])))
        checks.append((f"committed digest trips on {w}",
                       check_gate_trips(binary, w, ["--expected", wrong])))
    failures = 0
    for name, problems in checks:
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{name}: {status}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
