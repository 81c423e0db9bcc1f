#!/usr/bin/env python3
"""Merge scalar- and auto-level google-benchmark JSON runs.

Produces the committed BENCH_microbench.json: one entry per benchmark with
scalar_ns, auto_ns and the scalar/auto speedup, plus enough context (host,
dispatch level, date fields passed through from the auto run) to interpret
the numbers later. When the runs used repetitions, each time is the median
over the repetitions.

Usage: merge_bench_results.py scalar.json auto.json out.json
"""
import json
import statistics
import sys


def load_results(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    reps = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used;
        # the median is taken here from the individual repetitions.
        if bench.get("run_type") == "aggregate":
            continue
        reps.setdefault(bench["name"], []).append(float(bench["real_time"]))
    return doc, {name: statistics.median(ts) for name, ts in reps.items()}


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    scalar_doc, scalar_ns = load_results(argv[1])
    auto_doc, auto_ns = load_results(argv[2])

    names = sorted(set(scalar_ns) & set(auto_ns))
    missing = sorted(set(scalar_ns) ^ set(auto_ns))
    if missing:
        print(f"warning: benchmarks present in only one run: {missing}",
              file=sys.stderr)

    benchmarks = []
    for name in names:
        s, a = scalar_ns[name], auto_ns[name]
        benchmarks.append({
            "name": name,
            "scalar_ns": s,
            "auto_ns": a,
            "speedup": s / a if a > 0 else None,
        })

    context = auto_doc.get("context", {})
    merged = {
        "schema": "vibguard-bench-v1",
        "context": {
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "cpu_scaling_enabled": context.get("cpu_scaling_enabled"),
            "library_build_type": context.get("library_build_type"),
            "auto_level": context.get("vibguard_simd"),
        },
        "benchmarks": benchmarks,
    }
    with open(argv[3], "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")

    width = max((len(n) for n in names), default=4)
    print(f"{'benchmark':<{width}}  {'scalar_ns':>12}  {'auto_ns':>12}  speedup")
    for b in benchmarks:
        print(f"{b['name']:<{width}}  {b['scalar_ns']:>12.1f}  "
              f"{b['auto_ns']:>12.1f}  {b['speedup']:>6.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
