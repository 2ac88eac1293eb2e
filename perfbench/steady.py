#!/usr/bin/env python3
"""Steadiness report: run one workload k times and summarise each metric.

Usage, from the repository root:

    python3 perfbench/steady.py --workload eval-all --runs 10 \
        [--seeds 1,2,...] [--seconds 20] [--trace 0]

Each run gets its own seed (default 1..k).  For every metric it prints the
median, the quartiles (statistics.quantiles, n=4), the interquartile range
as a share of the median, and (max - min) / median — so a later change can
tell "unchanged" (inside the spread) from "unresolved" (spread wider than
the metric's bound in BENCHMARK.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", default="")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = ([int(s) for s in a.seeds.split(",")] if a.seeds
             else list(range(1, a.runs + 1)))
    values, units, bad = {}, {}, 0
    for seed in seeds:
        r = run_once(a.workload, seed, seconds, a.trace)
        bad += 0 if r["correct"] and r["failed"] == 0 else 1
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in r["metrics"].items()),
            flush=True)
    print(f"\n{a.workload}: {len(seeds)} runs, {bad} with failed checks")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  unit")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vs) - min(vs)) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {iqr:8.3f} "
              f"{rng:9.3f} {bound if bound is not None else '-':>6}  "
              f"{units[name]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
