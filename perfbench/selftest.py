#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at smoke size (perfbench/run.py
--smoke), untraced and traced, and checks that each run exits 0, that its
last stdout line is the result object with exactly the keys correct,
attempted, failed and metrics, that the output checks passed, and that
the metrics are exactly the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json declares, with the declared units and finite
values. Exits 1 on the first failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return f"{where}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    if not lines:
        return f"{where}: no output"
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if result["correct"] is not True:
        return f"{where}: output checks failed"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        return f"{where}: bad attempted/failed"
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"{where}: missing {missing}, undeclared {extra}"
    for name, metric in got.items():
        if metric.get("unit") != want[name]:
            return f"{where}: {name} unit {metric.get('unit')} != {want[name]}"
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{where}: {name} value {value!r}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            error = check_run(spec, workload, trace)
            if error:
                print(f"FAIL {error}")
                sys.exit(1)
            print(f"ok   {workload} --trace {trace}")
    print("selftest passed")


if __name__ == "__main__":
    main()
