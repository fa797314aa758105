#!/usr/bin/env python3
"""Checks that the benchmark is steady on this host.

    python3 perfbench/steady.py [--runs 5] [--first-seed 1000]

Run it from the repository root. For every workload in `BENCHMARK.json`
it makes two sets of `--runs` untraced runs of the same build, interleaved
(run i of set A and of set B back to back, alternating which goes first)
and with a distinct seed per run. For each workload and end-to-end metric
it prints both sets' medians and quartiles, the spread of all runs
(quartile distance over the median), whether that spread is within the
metric's bound in `BENCHMARK.json` (and whether it is within a third of
it), and whether the two medians agree within the bound. It also checks
that both sets fail the same share of operations. Exits 1 if any check
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("steady: --runs must be at least 2")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = args.first_seed + 2 * i + (side == "B")
                result = run_once(w, seed, bench["run_seconds"])
                runs[w][side].append(dict(result, seed=seed))
                values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"[{w} {side} seed {seed}] correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'median A [q1, q3]':>30} {'median B [q1, q3]':>30} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in runs[w]["A"]]
            b = [r["metrics"][name]["value"] for r in runs[w]["B"]]
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (qall[2] - qall[0]) / qall[1]
            worse = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            steady = spread <= bound
            ok = ok and agree and steady
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", SPREAD > bound")
            if steady and spread > bound / 3:
                verdict += ", spread > bound/3"
            print(f"  {name:<18} {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"{qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {spread:>7.3f} {bound:>6.2f}  "
                  f"{verdict} (B {worse:+.3f} worse)")
        shares = {}
        for side in ("A", "B"):
            failed = sum(r["failed"] for r in runs[w][side])
            attempted = sum(r["attempted"] for r in runs[w][side])
            shares[side] = (failed, attempted)
        same = shares["A"][0] * shares["B"][1] == shares["B"][0] * shares["A"][1]
        correct = all(r["correct"] for side in ("A", "B") for r in runs[w][side])
        ok = ok and same and correct
        print(f"  failed A {shares['A'][0]}/{shares['A'][1]}, B {shares['B'][0]}/{shares['B'][1]}: "
              f"{'same share' if same else 'DIFFERENT SHARE'}; "
              f"{'all runs correct' if correct else 'SOME RUN INCORRECT'}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
