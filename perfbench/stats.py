#!/usr/bin/env python3
"""Steadiness and comparison of end-to-end benchmark results.

    # Run every workload k times (seeds 1..k), record each run, and print
    # the spread of every end-to-end metric against its bound:
    python3 perfbench/stats.py steady --runs 10 --out results/one

    # Record a parent checkout and this one interleaved -- for each seed
    # one run of each, alternating which goes first -- into
    # results/ab/parent and results/ab/change, with the spreads of both:
    python3 perfbench/stats.py steady --runs 10 --out results/ab \
        --parent ../parent-checkout

    # Compare the two sets, workload by workload:
    python3 perfbench/stats.py compare results/ab/parent results/ab/change

A result set is a directory of records, one per run, named
<workload>-seed<N>.json: the run's environment stamp, its result, and its
place in the recording (which recording, and the how-manyth run of it).
Quartiles are statistics.quantiles(values, n=4); the spread is
(Q3 - Q1) / median. steady exits 1 when any spread exceeds its metric's
bound. compare pairs runs by seed and gives each workload x metric a
verdict by the rule the benchmark's README describes: improved, no worse,
worse or unresolved. It gives "improved" only when the two sets were
recorded interleaved by one steady --parent.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def load_set(directory):
    """{workload: {seed: record}} from a result-set directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        env = record["env"]
        runs.setdefault(env["workload"], {})[env["seed"]] = record
    return runs


def record_run(checkout, workload, seed, seconds, path, order):
    """Runs one workload of `checkout` and writes its record to `path`.

    Each checkout builds into its own .bench_build. Returns the exit code."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    stamp = next((json.loads(line[4:]) for line in lines
                  if line.startswith("env ")), None)
    print(f"ran {workload} seed {seed} in {checkout}: exit {proc.returncode}",
          file=sys.stderr)
    if proc.returncode != 0 or stamp is None:
        return proc.returncode or 1
    with open(path, "w") as f:
        json.dump({"env": stamp, "result": json.loads(lines[-1]),
                   "order": order}, f, indent=1)
    return 0


def values_of(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def print_spreads(bench, directory):
    """Spread table of one result set; returns how many exceed a bound."""
    runs = load_set(directory)
    flagged = 0
    print(f"{directory}:")
    print(f"{'workload':<16} {'metric':<16} {'unit':<8} {'n':>3} "
          f"{'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}"
          f"  flag")
    for workload in [w["name"] for w in bench["workloads"]]:
        records = list(runs.get(workload, {}).values())
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = values_of(records, name)
            q1, median, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if s > bound:
                flag = "OVER BOUND"
                flagged += 1
            elif s > bound / 3:
                flag = "over bound/3"
            print(f"{workload:<16} {name:<16} {metric['unit']:<8} "
                  f"{len(values):>3} {median:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {s:>8.4f} {bound:>6.3f}  {flag}")
        if records:
            stamp = records[0]["env"]
            sessions = stamp["rounds"] * stamp["sessions_per_round"]
            print(f"{'':<16} {sessions} sessions per run; "
                  f"env: nproc={stamp['nproc']} "
                  f"build={stamp['build_type']} compiler={stamp['compiler']} "
                  f"commit={stamp['commit'][:12]}")
    return flagged


def steady(args):
    bench = load_benchmark()
    # Which checkout records into which set, in recording order.
    sets = [(ROOT, args.out)]
    if args.parent:
        sets = [(os.path.abspath(args.parent),
                 os.path.join(args.out, "parent")),
                (ROOT, os.path.join(args.out, "change"))]
    for _, directory in sets:
        os.makedirs(directory, exist_ok=True)
    recording = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    seq = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in range(1, args.runs + 1):
            # Interleaved: alternate which checkout goes first, seed by seed.
            for checkout, directory in (sets if seed % 2 else sets[::-1]):
                path = os.path.join(directory, f"{workload}-seed{seed}.json")
                order = {"recording": recording, "seq": seq}
                seq += 1
                if record_run(checkout, workload, seed, bench["run_seconds"],
                              path, order) != 0:
                    return 1
    flagged = sum(print_spreads(bench, directory) for _, directory in sets)
    return 1 if flagged else 0


def interleaved(parent, change):
    """Whether every seed's parent and change runs were recorded back to
    back by one recording, with both orders occurring."""
    firsts = set()
    for seed in set(parent) & set(change):
        p = parent[seed].get("order", {})
        c = change[seed].get("order", {})
        if "recording" not in p or p["recording"] != c.get("recording") or \
                abs(p["seq"] - c["seq"]) != 1:
            return False
        firsts.add(p["seq"] < c["seq"])
    return firsts == {True, False}


def verdict(parent, change, better, bound):
    """choosing-metrics section 8 for one workload x metric.

    parent/change: {seed: value}. Returns (verdict, share of pairs won)."""
    seeds = sorted(set(parent) & set(change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    share = wins / len(seeds) if seeds else 0.0
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_median, p_q3 = quartiles(p_values)
    _, c_median, _ = quartiles(c_values)
    gain = sign * (c_median - p_median)
    if share >= 0.9 and gain > p_q3 - p_q1:
        return "improved", share
    all_better = all(sign * (c - p) > 0 for c in c_values for p in p_values)
    if spread(p_values) > bound and not all_better:
        return "unresolved", share
    if -gain > bound * abs(p_median):
        return "worse", share
    return "no worse", share


def summary(values):
    q1, median, q3 = quartiles(list(values))
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(args):
    bench = load_benchmark()
    parent_runs, change_runs = load_set(args.parent), load_set(args.change)
    worse = 0
    refused = 0
    print(f"{'workload':<16} {'metric':<16} {'parent median [Q1, Q3]':>36} "
          f"{'change median [Q1, Q3]':>36} {'won':>5}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        parent = parent_runs.get(workload, {})
        change = change_runs.get(workload, {})
        if not parent or not change:
            print(f"{workload:<16} missing from one result set")
            worse += 1
            continue
        paired = interleaved(parent, change)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = {s: r["result"]["metrics"][name]["value"]
                 for s, r in parent.items()}
            c = {s: r["result"]["metrics"][name]["value"]
                 for s, r in change.items()}
            result, share = verdict(p, c, metric["better"], metric["bound"])
            if result == "improved" and not paired:
                result = "unresolved (not interleaved)"
                refused += 1
            worse += result == "worse"
            print(f"{workload:<16} {name:<16} {summary(p.values()):>36} "
                  f"{summary(c.values()):>36} {share:>5.2f}  {result}")
    if refused:
        print(f"{refused} improvement(s) not accepted: record the two sets "
              f"interleaved with steady --parent")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("steady", help="run k times and print spreads")
    p.add_argument("--out", required=True, help="result-set directory")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--parent",
                   help="a parent checkout to record interleaved with this "
                        "one, into --out/parent and --out/change")
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args()
    return steady(args) if args.command == "steady" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
