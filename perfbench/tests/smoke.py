#!/usr/bin/env python3
"""Smoke test: every workload, a fraction of a second, both modes.

    python3 perfbench/tests/smoke.py PATH/TO/perfbench

Runs every workload perfbench knows, gated by BENCHMARK.json or not,
with --trace 0 and --trace 1 and checks that the last stdout line is a
correct result carrying exactly the end_to_end (resp. per_layer)
metrics of BENCHMARK.json, each with its unit.
Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
ALL_WORKLOADS = ["serve-miss", "serve-zipf", "cluster-trials",
                 "figure-suite"]


def run(exe, workload, trace):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", "0.4",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{cmd}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    exe = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in ALL_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(exe, workload, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            if got != want:
                problems.append(f"metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ")
            if problems:
                raise SystemExit(f"{workload} --trace {trace}: " +
                                 "; ".join(problems))
            print(f"ok  {workload} --trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} operations")
    print("smoke: all workloads report every metric with its unit")


if __name__ == "__main__":
    main()
