#!/usr/bin/env python3
"""Self-test of the benchmark at tiny world sizes.

Run from the repository root (takes about a minute once built):

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run emits exactly the end_to_end metrics, with their units,
    every one above 0, and answers correctly;
  * a traced run emits exactly the per_layer metrics with their units and
    writes a Chrome trace whose spans carry name, start, end, parent,
    workload and iteration, with Identify's stage spans inside it;
  * a deliberately wrong expected digest drives error_rate above 0.
"""

import json
import os
import subprocess
import sys
import tempfile

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny",
         *extra],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stderr}")
    return out.stdout, json.loads(lines[-1])


def check_metrics(workload, result, expected):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(got == want, f"{workload}: metric names/units differ from "
          f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["attempted"] >= 1, f"{workload}: nothing attempted")


def check_trace(workload, path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    check(events, f"{workload}: empty trace")
    by_id = {e["args"]["id"]: e for e in events}
    for e in events:
        args = e["args"]
        if not ({"id", "parent", "workload", "iteration"} <= set(args) and
                e["ph"] == "X" and e["dur"] >= 0 and
                args["workload"] == workload):
            check(False, f"{workload}: malformed span {e}")
            return
        parent = by_id.get(args["parent"])
        if parent is not None and not (
                parent["ts"] - 1e-3 <= e["ts"] and
                e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3):
            check(False, f"{workload}: span {e['name']} outside its parent")
            return
    if workload != "incremental_churn":
        stages = [e["name"] for e in events
                  if by_id.get(e["args"]["parent"], {}).get("name") ==
                  "Identify"]
        check("extend_r" in stages and "distinctness_rules" in stages,
              f"{workload}: no Identify stage spans")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(".bench_build", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="perfbench-selftest-", dir=".bench_build")
    for w in bench["workloads"]:
        name = w["name"]
        stdout, result = run(name, 0)
        check_metrics(name, result, bench["end_to_end"])
        check(result["correct"] and result["failed"] == 0,
              f"{name}: wrong answers at the default digest\n{stdout}")
        for metric, m in result["metrics"].items():
            check(m["value"] > 0, f"{name}: {metric} is {m['value']}")
        check("error_rate" in stdout and "header {" in stdout,
              f"{name}: no run header or error_rate line")

        trace_path = os.path.join(tmp, f"{name}.json")
        _, traced = run(name, 1, "--trace-out", trace_path)
        check_metrics(name, traced, bench["per_layer"])
        check(traced["correct"], f"{name}: wrong answers in the traced run")
        check_trace(name, trace_path)

        _, wrong = run(name, 1, "--expect-digest", "0")
        error_rate = wrong["metrics"]["error_rate"]["value"]
        check(not wrong["correct"] and wrong["failed"] > 0 and error_rate > 0,
              f"{name}: a wrong expected digest left error_rate at "
              f"{error_rate}")
        print(f"ok   {name}", flush=True)
    if failures:
        sys.exit(f"{len(failures)} self-test failure(s)")
    print("self-test passed")


if __name__ == "__main__":
    main()
