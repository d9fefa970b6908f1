#!/usr/bin/env python3
"""Traced run of one workload, next to an untraced one.

    python3 perfbench/trace.py --workload churn_campaign --seed 1

Runs the workload once untraced and once traced (the same seed), then
prints every per-layer metric of the traced run, the self time of each
span name (span length minus the time its child spans cover) from the
span file, and the tracing overhead: the traced run's `trace.run_s`
against the untraced run's `run_s`.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d trace %d failed" % (workload, seed, trace))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    plain = run(args.workload, args.seed, bench["run_seconds"], 0)
    traced = run(args.workload, args.seed, bench["run_seconds"], 1)
    print("%s seed %d: untraced correct=%s, traced correct=%s" % (
        args.workload, args.seed, plain["correct"], traced["correct"]))
    print("\nper-layer metrics")
    for name, m in traced["metrics"].items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))

    span_file = os.path.join(ROOT, "build-perfbench", "trace",
                             "%s-seed%d_trace.json" % (args.workload, args.seed))
    with open(span_file) as f:
        layers = json.load(f)["layers"]
    print("\nspans (%s)" % os.path.relpath(span_file, ROOT))
    print("  %-30s %10s %12s %12s" % ("name", "calls", "total_s", "self_s"))
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print("  %-30s %10d %12.6f %12.6f" % (
            name, t["calls"], t["total_s"], t["self_s"]))

    run_plain = plain["metrics"]["run_s"]["value"]
    run_traced = traced["metrics"]["trace.run_s"]["value"]
    print("\ntracing overhead: run_s %.4f s untraced, %.4f s traced (%+.2f%%)" % (
        run_plain, run_traced, 100.0 * (run_traced - run_plain) / run_plain))
    return 0 if plain["correct"] and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
