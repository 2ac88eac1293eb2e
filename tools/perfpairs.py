#!/usr/bin/env python3
"""Paired comparison of one perfbench workload: another revision vs this tree.

Usage, from the repository root:

    python3 tools/perfpairs.py --base REV --workload W \
        [--seed N] [--pairs 10]

BASE is checked out in a temporary `git worktree` (removed afterwards).
Each pair runs `perfbench/run.py --trace 0` for BENCHMARK.json's
`run_seconds`, once in the BASE tree and once in this one, alternating
which side runs first so that a drift of the host's speed does not favour
either side.  For every end-to-end metric of
BENCHMARK.json it prints both sides' median and quartiles
(statistics.quantiles, n=4), the change's median over BASE's, and how many
pairs the change won.  A claimed gain needs the change to win at least 9
of 10 pairs and its median gap to exceed BASE's interquartile range.

Exits 1 as soon as a run reports `correct: false` or failed operations,
and 2 when a run produces no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.getcwd()


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"perfpairs: run in {tree} failed (exit {out.returncode})",
              file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return q1, statistics.median(vs), q3


def report(metrics, base, change):
    print(f"\n{'metric':16} {'base':>10} {'q1':>10} {'q3':>10} "
          f"{'change':>10} {'q1':>10} {'q3':>10} {'ratio':>7} {'wins':>6}")
    for m in metrics:
        name = m["name"]
        b, c = base.get(name), change.get(name)
        if not b or not c:
            continue
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        better = (lambda x, y: x < y) if m["better"] == "lower" else (
            lambda x, y: x > y)
        wins = sum(1 for x, y in zip(c, b) if better(x, y))
        ratio = cmed / bmed if bmed else float("nan")
        print(f"{name:16} {bmed:10.4g} {bq1:10.4g} {bq3:10.4g} "
              f"{cmed:10.4g} {cq1:10.4g} {cq3:10.4g} {ratio:7.3f} "
              f"{wins:3d}/{len(c)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--pairs", type=int, default=10)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print("perfpairs: run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    tmp = tempfile.mkdtemp(prefix="perfpairs-")
    base_tree = os.path.join(tmp, "base")
    subprocess.run(["git", "worktree", "add", "--detach", base_tree, a.base],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    values = {"base": {}, "change": {}}
    try:
        for i in range(a.pairs):
            sides = [("base", base_tree), ("change", ROOT)]
            if i % 2 == 1:
                sides.reverse()
            for side, tree in sides:
                r = run_once(tree, a.workload, a.seed, seconds)
                print(f"pair {i + 1} {side:6}: correct={r['correct']} "
                      f"failed={r['failed']} " + " ".join(
                          f"{n}={m['value']:.4g}"
                          for n, m in r["metrics"].items()), flush=True)
                if not r["correct"] or r["failed"] != 0:
                    print(f"perfpairs: {side} run reported incorrect output",
                          file=sys.stderr)
                    return 1
                for n, m in r["metrics"].items():
                    values[side].setdefault(n, []).append(m["value"])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=ROOT, stdout=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"\n{a.workload}, seed {a.seed}: {a.pairs} pairs, base {a.base} "
          f"vs the working tree")
    report(bench["end_to_end"], values["base"], values["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
