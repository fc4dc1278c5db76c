#!/usr/bin/env python3
"""Steadiness check for servebench.

Runs each workload several times with different seeds and prints, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) next to the metric's bound from BENCHMARK.json,
plus the share of failed operations. Run from the repository root:

    python3 servebench/steady.py                 # every workload, 10 runs
    python3 servebench/steady.py --runs 5 --workloads udp-gso,sc-tcp

A spread at or above the bound makes the metric unusable for telling a
regression from noise; the benchmark aims for spreads below a third of it.
Exits non-zero when a run fails or a spread (setup_s aside) reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seed0", type=int, default=1, help="first seed; runs use seed0, seed0+1, ...")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = bench["run_seconds"]

    ok = True
    for wl in names:
        results = []
        for i in range(args.runs):
            r = run_once(bench["command"], wl, args.seed0 + i, seconds, 0)
            results.append(r)
            print(f"{wl} seed {args.seed0 + i}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"== {wl}: {args.runs} runs, correct {correct}, failed share {sorted(shares)}")
        ok = ok and correct
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            if name != "setup_s" and spread >= bound:
                ok = False
            print(f"   {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  bound {bound}  {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
