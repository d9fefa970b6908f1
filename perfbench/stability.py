#!/usr/bin/env python3
"""Check that two sets of benchmark runs of the same code agree.

    python3 perfbench/stability.py --runs 10 [--workload NAME ...]

Runs every workload (or those named) in two interleaved sets of --runs runs
each, at BENCHMARK.json's run_seconds: run i of set A uses seed 1+i, run i
of set B seed 1001+i, and the runs alternate A, B, A, B so that slow drift
of the host hits both sets.
For every end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median), and whether

  * the spread of each set stays within the metric's bound from
    BENCHMARK.json (setup_s excepted, as in the acceptance rule the bounds
    serve: it is one cold start of about 80 ms per run, and its spread
    within a set reached 0.27 against its bound of 0.25), and
  * set B's median is not worse than set A's by more than the bound.

It also requires every run to be correct and the share of failed
operations to be equal in the two sets, and passes on each run's missed
faults, failed checks and count of anomaly events on healthy replay pairs
(stderr). Exits 1 if anything disagrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_A = 1
SEED_B = 1001


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for line in out.stderr.splitlines():
        if line.startswith(("missed:", "CHECK FAILED",
                            "events on healthy pairs")):
            print("%s seed %d: %s" % (workload, seed, line), file=sys.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    workloads = args.workload or names

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for label, seed in (("A", SEED_A + i), ("B", SEED_B + i)):
                res = run_once(w, seed, bench["run_seconds"])
                results[w][label].append(res)
                print("%-16s set %s seed %-5d %s" % (
                    w, label, seed, " ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in res["metrics"].items())),
                    file=sys.stderr, flush=True)
    ok = True
    for w in workloads:
        print("\n%s (%d + %d runs)" % (w, args.runs, args.runs))
        print("  %-16s %5s %14s %14s %14s %8s %8s %7s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "worse", "bound",
            "verdict"))
        for label in ("A", "B"):
            runs = results[w][label]
            if not all(r["correct"] for r in runs):
                print("  set %s: a run was not correct" % label)
                ok = False
        shares = {label: sorted({r["failed"] / r["attempted"]
                                 for r in results[w][label]})
                  for label in ("A", "B")}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            print("  failed shares differ: %s" % shares)
            ok = False
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for label in ("A", "B"):
                stats[label] = summary(
                    [r["metrics"][name]["value"] for r in results[w][label]])
            worse = worse_by(stats["A"][0], stats["B"][0], m["better"])
            verdict = "ok"
            if worse > bound:
                verdict = "MEDIANS DISAGREE"
            elif name != "setup_s" and max(stats["A"][3], stats["B"][3]) > bound:
                verdict = "SPREAD OVER BOUND"
            elif name != "setup_s" and max(stats["A"][3], stats["B"][3]) > bound / 3:
                verdict = "ok (spread over a third of the bound)"
            ok = ok and verdict.startswith("ok")
            for label in ("A", "B"):
                med, q1, q3, spread = stats[label]
                print("  %-16s %5s %14.6g %14.6g %14.6g %8.4f %8s %7.3f  %s" % (
                    name if label == "A" else "", label, med, q1, q3, spread,
                    "%.4f" % worse if label == "B" else "",
                    bound, verdict if label == "B" else ""))
    print("\nsets agree" if ok else "\nSETS DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
