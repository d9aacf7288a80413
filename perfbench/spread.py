#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload dense_prop1 --seeds 1-10

For every metric in the final JSON line it prints the median over the runs
and the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of that median. Runs go one
after another, never in parallel, and any failed answer stops the sweep.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values = {}
    units = {}
    seeds = seeds_of(args.seeds)
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong answers\n{out.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {len(seeds)} runs")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:32} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.3f} {units[name]}")


if __name__ == "__main__":
    main()
