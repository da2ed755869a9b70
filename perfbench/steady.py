#!/usr/bin/env python3
"""Steadiness of the Cobra end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads broadcast,mil]

Runs each workload --runs times for BENCHMARK.json's run_seconds, each run in
its own process with its own seed (1, 2, ...), through perfbench/run.py. For
every end-to-end metric it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, the
metric's bound from BENCHMARK.json, and whether the spread is within a third
of the bound. It also prints the share of failed operations per run, which
must be the same in every run, and the stamp of the first run.

Exits 1 when a run fails, a check fails, the failed share differs between
runs, or a spread exceeds its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     done.returncode))
    stamp = None
    for line in lines[:-1]:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    return stamp, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = FIRST_SEED + i
            stamp, result = run_once(workload, seed, spec["run_seconds"], 0)
            if i == 0:
                print("%s: stamp %s" % (workload, json.dumps(stamp)),
                      flush=True)
            results.append(result)
            print("  seed %d: %s" % (seed, " ".join(
                "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                for m in spec["end_to_end"])), flush=True)
            if not result["correct"]:
                print("  seed %d: checks FAILED" % seed)
                ok = False
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("  failed share per run: %s" %
              ", ".join("%.6f" % s for s in shares))
        if len(shares) != 1:
            ok = False
        print("  %-18s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "WIDE" if spread <= metric["bound"] else "OVER")
            if spread > metric["bound"]:
                ok = False
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %6.2f %s" %
                  (metric["name"], median, q1, q3, spread, metric["bound"],
                   verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
