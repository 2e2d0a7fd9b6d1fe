#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload chat_b8 --seed 1 --seconds 30 --trace 0

The first call configures and builds servebench/ (and the spinfer libraries
it links) into .bench_build/servebench; later calls rebuild only what
changed. Build output goes to stderr. The benchmark's stdout is passed
through once its last line has been checked: one JSON object with exactly
the keys correct/attempted/failed/metrics, whose metric names are the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Exits non-zero, printing no result, if the build, the run or
that check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
RUN_TIMEOUT_S = 170


def build():
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench",
                    "-j", "4"], check=True, **quiet)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    missing = expected_metrics(trace) ^ set(result["metrics"])
    if missing:
        raise ValueError("metric names differ from BENCHMARK.json: %s"
                         % sorted(missing))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        check_result(lines[-1], args.trace)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        print("servebench: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
