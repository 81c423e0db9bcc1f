#!/usr/bin/env python3
"""Build the VibGuard benchmark runner from this checkout and run one workload.

    python3 perfbench/run.py --workload batch-mix --seed 1 --seconds 20 --trace 0

The first call configures and builds `perfbench` (the repository's library
targets plus the runner, RelWithDebInfo) in `.bench_build/` at the root of
the checkout; later calls only rebuild what changed. The runner's output is
passed through: its last line is the JSON result. With --trace 0 the
result's setup_s is the median of three cold set-ups, each timed from the
start of its own process: the measured run's own, then two set-up-only runs
of the runner. Exits non-zero, without a result, when the checkout has no
VibGuard sources or the build fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("batch-mix", "audio-baseline", "served-open")
SETUP_PROCESSES = 3


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: no VibGuard sources in this checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")
    base = [str(exe), "--workload", args.workload, "--seed", str(args.seed)]
    # The runner stops on its own after set-up plus --seconds; the timeouts
    # only guard against a wedged run.
    if args.trace:
        result = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", "1"],
            timeout=args.seconds + 150, check=False)
        sys.exit(result.returncode)
    result = subprocess.run(
        base + ["--seconds", str(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=args.seconds + 90,
        check=False)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        sys.exit(result.returncode)
    *lines, last = result.stdout.splitlines()
    report = json.loads(last)
    setup_s = [report["metrics"]["setup_s"]["value"]]
    for _ in range(SETUP_PROCESSES - 1):
        setup = subprocess.run(base + ["--setup-only"], stdout=subprocess.PIPE,
                               text=True, timeout=30, check=True)
        setup_s.append(float(setup.stdout.split()[-1]))
    report["metrics"]["setup_s"]["value"] = statistics.median(setup_s)
    print("\n".join(lines + [json.dumps(report)]))


if __name__ == "__main__":
    main()
