#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady every metric is.

    python3 perfbench/steady.py [--runs 10] [--seed-base 100] [--trace 0]
                                [--workload rt-kv ...]

Run from the repository root. Each run uses its own seed (seed-base,
seed-base+1, ...). For every metric the table shows the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and, for end-to-end metrics, the bound from
BENCHMARK.json with the share of it the spread uses. It also prints the
share of failed operations per workload, which must be identical from run
to run. The bounds in BENCHMARK.json are set from this script's output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed_base + i, args.seconds, args.trace)
            results.append(r)
            print(f"# {workload} seed {args.seed_base + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares: {shares}")
        print(f"{'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6} {'used':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            used = spread / bound if bound else None
            if used is not None and name != "setup_s":
                worst = max(worst, used)
            print(f"{name:30} {med:14.3f} {q1:14.3f} {q3:14.3f} {spread:8.3f} "
                  f"{bound if bound is not None else '':>6} "
                  f"{'' if used is None else f'{used:.2f}':>6}")
        print()
    if args.trace == 0:
        print(f"largest share of a bound used by a spread (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
