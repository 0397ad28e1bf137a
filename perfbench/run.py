#!/usr/bin/env python3
"""Run one workload of the fd-backscatter benchmark.

    python3 perfbench/run.py --workload link_locked --seed 7 --seconds 20 --trace 0

Builds the benchmark package in ``perfbench/`` (release profile, without the
``trace`` feature, into ``$CARGO_TARGET_DIR`` or ``.bench_build``), runs the
workload from the repository root, forwards the benchmark's report lines and
prints the result object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` metrics, where
a layer the workload never exercises reads 0. Exits 1 when an output fails
its correctness check and 2 when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BINARY = "fdb-perfbench"
# The benchmark's own run cap is three times --seconds plus its checks.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail(f"build failed ({' '.join(cmd)} exited {res.returncode})")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", BINARY)


def shape(result, bench, traced):
    """Checks the result object and lays its metrics out as BENCHMARK.json lists them."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    got = result["metrics"]
    metrics = {}
    for m in bench["per_layer" if traced else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not traced:
                fail(f"end-to-end metric {name} missing")
            got[name] = {"value": 0.0, "unit": unit}
        if got[name]["unit"] != unit:
            fail(f"{name} measured in {got[name]['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = got[name]
    extra = sorted(set(got) - set(metrics))
    if extra:
        fail(f"metrics not listed in BENCHMARK.json: {extra}")
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; BENCHMARK.json lists {names}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be ≥ 0 and --seconds > 0")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = res.stdout.splitlines()
    if res.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited {res.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1][:200]}")
    print(json.dumps(shape(result, bench, args.trace == 1)), flush=True)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
