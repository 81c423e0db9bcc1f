#!/usr/bin/env python3
"""Self-test of the VibGuard benchmark.

    python3 perfbench/selftest.py

Builds the runner, then:
  * runs every workload for one second through run.py, untraced and traced,
    and checks each result line against BENCHMARK.json: exactly the
    keys correct/attempted/failed/metrics, a correct run with no failures,
    and exactly the declared metrics with their units (end-to-end ones
    non-zero);
  * checks that one seed always renders the same input panel and another
    seed a different one.
Exits non-zero on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def check_result(workload, trace, line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"{workload} trace {trace}: last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} trace {trace}: output checks failed")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and attempted >= 1):
        fail(f"{workload} trace {trace}: attempted = {attempted!r}")
    if failed != 0:
        fail(f"{workload} trace {trace}: {failed} of {attempted} failed")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != want[name]:
            fail(f"{workload} trace {trace}: {name} = {metric}")
        if not isinstance(metric["value"], (int, float)):
            fail(f"{workload} trace {trace}: {name} is not a number")
        if not trace and metric["value"] == 0:
            fail(f"{workload}: end-to-end metric {name} reads 0")


def digest(exe, seed):
    out = subprocess.run([str(exe), "--digest", "--seed", str(seed)],
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def main():
    exe = run.build()
    names = [w["name"] for w in SPEC["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != runner {run.WORKLOADS}")
    for workload in names:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", "11", "--seconds", "1", "--trace",
                 str(trace)],
                capture_output=True, text=True, timeout=120, check=False)
            if out.returncode != 0:
                fail(f"{workload} trace {trace}: exit {out.returncode}: "
                     f"{out.stderr[-500:]}")
            check_result(workload, trace, out.stdout.strip().splitlines()[-1])
            print(f"ok  {workload} trace {trace}")
    first, again, other = digest(exe, 5), digest(exe, 5), digest(exe, 6)
    if first != again:
        fail(f"seed 5 rendered two different panels: {first} vs {again}")
    if first == other:
        fail("seeds 5 and 6 rendered the same panel")
    print(f"ok  panel digest of seed 5 is stable ({first})")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
