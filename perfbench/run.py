#!/usr/bin/env python3
"""Benchmark entry point: builds the measuring program and runs one workload.

    python3 perfbench/run.py --workload ycsb_scaleout --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. It builds `perfbench/` (a Cargo
package of its own that depends on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, checks the
result against the metric lists in `BENCHMARK.json`, and prints the report;
the last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced run
instead and reports the per-layer metrics, writing its spans to
`$CARGO_TARGET_DIR/perfbench-spans/<workload>-<seed>.json`. `--workload all`
runs every workload, end-to-end and traced, one after another.

Exit codes: 0 with a correct result; 1 when the correctness gate failed
(the result is still printed, with "correct": false); 2 when no result
could be produced (missing sources, failed build, crash or timeout).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk_migrate", "ycsb_scaleout", "ycsb_observed")
# One run must end well within 180 s; the program itself stops repeating
# once --seconds have passed, so this only catches a hung run.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ directory is missing; run from the repository root")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return os.path.join(target_dir, "release", "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_one(binary, target_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, result object, correct)."""
    cmd = [binary, "traced" if trace else "timed", workload, seed, str(seconds)]
    if trace:
        spans_dir = os.path.join(target_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append(os.path.join(spans_dir, f"{workload}-{seed}.json"))
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    lines = res.stdout.rstrip("\n").splitlines()
    if res.returncode not in (0, 1) or not lines:
        fail(f"{workload}: measuring program exited with {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: measuring program printed no result")

    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")
    out = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    return lines[:-1], out, bool(result["correct"]) and res.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)
    seed = str(args.seed & 0xFFFF_FFFF_FFFF_FFFF)

    if args.workload != "all":
        lines, out, ok = run_one(binary, target_dir, args.workload, seed, args.seconds, args.trace)
        for line in lines:
            print(line)
        print(json.dumps(out))
        sys.exit(0 if ok else 1)

    # Every workload, end-to-end then traced; the last line sums them up
    # with metric names prefixed by workload and run kind.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, out, ok = run_one(binary, target_dir, workload, seed, args.seconds, trace)
            for line in lines:
                print(line)
            print(json.dumps(out), flush=True)
            total["correct"] = total["correct"] and ok
            total["attempted"] += out["attempted"]
            total["failed"] += out["failed"]
            kind = "per_layer" if trace else "end_to_end"
            for name, m in out["metrics"].items():
                total["metrics"][f"{workload}/{kind}/{name}"] = m
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else 1)


if __name__ == "__main__":
    main()
