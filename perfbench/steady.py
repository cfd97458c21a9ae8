#!/usr/bin/env python3
"""Steadiness tool for the simulator benchmark.

Runs one workload N times, with seeds 1..N, and reports for each
end-to-end metric the median, the quartiles (statistics.quantiles(n=4))
and the spread: the distance between the quartiles as a share of the
median. With --other, a second checkout runs the same seeds interleaved
with this one (the side that goes first alternates), and the report adds
each metric's median change against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload dense_grid --runs 10
    python3 perfbench/steady.py --workload paper_lifetime --runs 10 \
        --other ../parent-checkout

Run from the root of a checkout; every run goes through perfbench/run.py
exactly as the benchmark command does, untraced. Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run failed in %s (seed %d, exit %d)"
                         % (checkout, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--other", help="second checkout to interleave")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sides = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])

    results = {side: [] for side in sides}
    for i in range(args.runs):
        seed = 1 + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for side in order:
            result = run_once(side, args.workload, seed, seconds)
            results[side].append(result)
            values = " ".join("%s=%.6g" % (k, v["value"])
                              for k, v in sorted(result["metrics"].items()))
            print("seed %3d %-10s correct=%s attempted=%d failed=%d %s" % (
                seed, "this" if side == ROOT else "other", result["correct"],
                result["attempted"], result["failed"], values), flush=True)

    summaries = {}
    for side in sides:
        runs = results[side]
        names = sorted(runs[0]["metrics"])
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in names}
        summaries[side] = summary
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s (%s):" % ("this" if side == ROOT else "other", side))
        for name in names:
            s = summary[name]
            bound = bounds.get(name, {}).get("bound")
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"],
                     "" if bound is None else
                     "  (bound %.2f, a third %.4f)" % (bound, bound / 3)))
        print("  all correct: %s; failed shares: %s"
              % (all(r["correct"] for r in runs), shares))

    if args.other:
        base, other = (summaries[side] for side in sides)
        print("\nother vs this (positive = other is worse):")
        for name in sorted(base):
            if name not in bounds:
                continue
            change = other[name]["median"] / base[name]["median"] - 1.0
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE"
            print("  %-14s %+.4f (bound %.2f) %s"
                  % (name, worse, bounds[name]["bound"], verdict))

if __name__ == "__main__":
    main()
