#!/usr/bin/env python3
"""Heron benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the Heron
libraries from src/) into .bench_build/perfbench on first use, runs one
workload for the given host-time budget and prints the result as the last
line of standard output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's "end_to_end" list, with
--trace 1 its "per_layer" list. The binary prints bare values by name;
BENCHMARK.json is the one list of names and units, and this script orders
the values by it and attaches the units. Any build failure, correctness
violation or malformed result exits non-zero without printing a result.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "heron_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally (a no-op when current).

    Build output goes to stderr so the result stays the last stdout line.
    """
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0 or not os.path.exists(BINARY):
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def to_result(line, trace):
    """Turns the binary's result line into the benchmark's result line.

    Every end-to-end metric must be printed. A per-layer metric the
    workload does not exercise is not printed and reads 0. A printed name
    BENCHMARK.json does not list fails the run.
    """
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    if res["correct"] is not True or res["attempted"] < 1:
        fail("result is not correct or attempted nothing")
    want = expected_metrics(trace)
    got = res["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in want})
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    missing = [m["name"] for m in want if m["name"] not in got]
    if missing and not trace:
        fail(f"end-to-end metrics not printed: {', '.join(missing)}")
    res["metrics"] = {
        m["name"]: {"value": got.get(m["name"], 0), "unit": m["unit"]}
        for m in want
    }
    return json.dumps(res)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload {args.workload} failed (exit {run.returncode})")
    result = to_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(result, flush=True)


if __name__ == "__main__":
    main()
