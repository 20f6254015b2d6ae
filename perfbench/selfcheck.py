#!/usr/bin/env python3
"""Quick self-check of the benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

It runs the benchmark's unit tests (among them: the output checks report a
failure when given two different designs), then every workload at minimum
size (`--quick`) with and without tracing, and asserts that each run is
correct and emits exactly the metrics BENCHMARK.json names, each with its
unit. It also checks that perfbench/plan.json states a prediction for every
per-layer metric. Exits non-zero on the first problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    print(f"selfcheck: FAILED: {msg}")
    sys.exit(1)


def run_quick(command, workload, trace):
    args = command + ["--workload", workload, "--seconds", "0", "--trace", str(trace), "--quick"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace} printed nothing")
    return json.loads(lines[-1])


def check_result(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in expected]:
        missing = {m["name"] for m in expected} ^ set(metrics)
        fail(f"{label}: emitted metrics differ from BENCHMARK.json: {sorted(missing)}")
    for m in expected:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            fail(f"{label}: {m['name']} emitted as {got}, expected unit {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            fail(f"{label}: {m['name']} value {value!r}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((ROOT / "perfbench" / "plan.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer_names = [m["name"] for m in bench["per_layer"]]
    if list(plan["per_layer"]) != per_layer_names:
        fail("plan.json per_layer does not list exactly the per-layer metrics of BENCHMARK.json")
    for name, pred in plan["per_layer"].items():
        if not set(pred["moves"]) | set(pred.get("flat", [])) <= e2e or not set(pred["on"]) <= set(workloads):
            fail(f"plan.json: {name} names an unknown metric or workload")
    if set(plan["seeds"]["default"]) != set(workloads):
        fail("plan.json: default seeds do not cover the workloads")

    manifest = str(ROOT / "perfbench" / "Cargo.toml")
    tests = subprocess.run(
        ["cargo", "test", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if tests.returncode != 0:
        fail(f"unit tests:\n{tests.stdout[-2000:]}\n{tests.stderr[-2000:]}")
    print("selfcheck: unit tests pass (equality checks flag two different designs)")

    for workload in workloads:
        for trace, expected in [(0, bench["end_to_end"]), (1, bench["per_layer"])]:
            result = run_quick(bench["command"], workload, trace)
            check_result(result, expected, f"{workload} trace={trace}")
            print(f"selfcheck: {workload} trace={trace}: {len(expected)} metrics with units, "
                  f"{result['attempted']} operations, none failed")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
