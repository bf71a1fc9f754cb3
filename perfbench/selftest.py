#!/usr/bin/env python3
"""Self-test of the Heron benchmark.

    python3 perfbench/selftest.py [--seconds S] [--workload NAME ...]

For every workload in BENCHMARK.json (or the ones named):
  * two plain runs with one seed print the same sim_digest, and exactly the
    end-to-end metrics of BENCHMARK.json;
  * a run with another seed prints a different digest;
  * a traced run prints exactly the per-layer metrics and the same digest
    (it fails by itself if tracing perturbs a virtual-time figure);
  * the traced figures show the workload exercises what it claims.
An unknown workload must exit non-zero without printing a result.
Exits 1 on the first failed assertion.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What each workload must exercise, checked on its traced run.
EXPECT = {
    "tpcc": [
        ("core.fast.read_hit_ratio", "==", 0),
        ("core.fast.write_commit_ratio", "==", 0),
        ("core.coord.us_p50", ">", 0),
        ("core.exec.remote_reads_per_op", ">", 0),
    ],
    "kv-fast": [
        ("core.fast.read_hit_ratio", ">=", 0.9),
        ("core.fast.write_commit_ratio", ">=", 0.9),
        ("core.coord.us_p99", "==", 0),
        ("core.coord.delayed_ratio", "==", 0),
    ],
    "kv-open": [
        ("core.fast.read_hit_ratio", "==", 0),
        ("rate_max_ops_s", ">", 0),
        ("lat_p99_us.high", ">", 0),
        ("core.coord.us_p50", ">", 0),
        ("durable.checkpoints", ">", 0),
        ("durable.bytes_written", ">", 0),
    ],
    "kv-failover": [
        ("amcast.takeovers", ">=", 1),
        ("core.xfer.delta_bytes", ">", 0),
        ("core.xfer.full_bytes", "==", 0),
        ("catchup_ms", ">", 0),
    ],
}

OPS = {
    "==": lambda a, b: a == b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def run(workload, seed, seconds, trace):
    """Runs the benchmark; returns (exit code, digest, result or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split("=", 1)[1] for l in lines if "sim_digest=" in l),
                  None)
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, digest, result


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok   {msg}")


def main():
    ap = argparse.ArgumentParser(description="Heron benchmark self-test")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    code, _, result = run("no-such-workload", 1, args.seconds, 0)
    check(code != 0 and result is None,
          "an unknown workload exits non-zero without a result")

    for w in workloads:
        code_a, dig_a, res_a = run(w, 7, args.seconds, 0)
        code_b, dig_b, res_b = run(w, 7, args.seconds, 0)
        check(code_a == 0 and code_b == 0, f"{w}: plain runs succeed")
        check(list(res_a["metrics"]) == e2e,
              f"{w}: prints every end-to-end metric of BENCHMARK.json")
        check(dig_a is not None and dig_a == dig_b,
              f"{w}: same seed, same sim_digest ({dig_a})")
        same_sim = all(res_a["metrics"][k] == res_b["metrics"][k]
                       for k in ("tput_ops_s", "goodput_ops_s", "lat_p50_us",
                                 "lat_p99_us"))
        check(same_sim, f"{w}: same seed, identical virtual-time metrics")
        _, dig_c, _ = run(w, 8, args.seconds, 0)
        check(dig_c != dig_a, f"{w}: another seed, another sim_digest")

        code_t, dig_t, res_t = run(w, 7, args.seconds, 1)
        check(code_t == 0, f"{w}: traced run succeeds")
        check(list(res_t["metrics"]) == layer,
              f"{w}: prints every per-layer metric of BENCHMARK.json")
        # The traced run itself fails if a traced repetition's virtual-time
        # metrics differ from its plain repetitions'.
        check(dig_t == dig_a, f"{w}: traced run reproduces the sim_digest")
        for name, op, want in EXPECT.get(w, []):
            got = res_t["metrics"][name]["value"]
            check(OPS[op](got, want), f"{w}: {name} = {got} {op} {want}")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
