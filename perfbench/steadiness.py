#!/usr/bin/env python3
"""Run one workload N times and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload baseline --runs 10
    python3 perfbench/steadiness.py --workload baseline --runs 10 \
        --seed-base 101 --out second.json --against first.json

Each run uses its own seed (seed-base, seed-base + 1, ...) and the
run_seconds of BENCHMARK.json.  For every end-to-end metric, and every
metric an untraced run prints as "unbounded", the report gives the
median, the quartiles (statistics.quantiles(values, n=4)), and the spread
(Q3 - Q1) / median against the metric's bound: "ok" when the spread is
below a third of the bound, "WIDE" when it exceeds the bound.
--against compares these medians with a saved set (the second median may
be worse than the first by at most the bound); --logs keeps each run's
full output.  Exits 1 if a run fails.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return (spec, {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def run_once(workload, seed, seconds, logs):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if logs:
        os.makedirs(logs, exist_ok=True)
        with open(os.path.join(logs, "%s-%d.txt" % (workload, seed)),
                  "w") as f:
            f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit("run with seed %d failed (exit %d)"
                         % (seed, proc.returncode))
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = re.fullmatch(r"(end_to_end|unbounded) (\S+) = (\S+) \S+", line)
        if m:
            printed[m.group(2)] = float(m.group(3))
    return result, printed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric.get("better") == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", help="save the per-run values as JSON")
    ap.add_argument("--against", help="saved values to compare medians with")
    ap.add_argument("--logs", help="directory for each run's full output")
    args = ap.parse_args()

    spec, metrics, per_layer = load_spec()
    seconds = spec["run_seconds"]
    values = {name: [] for name in metrics}
    for i in range(args.runs):
        seed = args.seed_base + i
        result, printed = run_once(args.workload, seed, seconds, args.logs)
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        for name, value in printed.items():
            if name not in metrics:
                values.setdefault(name, []).append(value)
        print("run %d/%d seed %d: attempted %d failed %d correct %s"
              % (i + 1, args.runs, seed, result["attempted"],
                 result["failed"], result["correct"]), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f,
                      indent=1)
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)["values"]

    print("%-28s %12s %12s %12s %7s %6s %s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name in values:
        if len(values[name]) < 2:
            continue
        metric = metrics.get(name) or per_layer.get(name, {})
        median, q1, q3, spread = summarize(values[name])
        bound = metric.get("bound")
        if bound is None:
            verdict = "unbounded"
        else:
            verdict = ("ok" if spread < bound / 3 else
                       "within" if spread <= bound else "WIDE")
        if name in previous:
            change = worse_by(metric, statistics.median(previous[name]),
                              median)
            verdict += "; vs saved %+.3f%s" % (
                change, " WORSE" if bound is not None and change > bound
                else "")
        print("%-28s %12.6g %12.6g %12.6g %7.3f %6s %s"
              % (name, median, q1, q3, spread, bound, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
