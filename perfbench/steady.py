#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and prints, for every
end-to-end metric, the median, quartiles, min/max and the quartile spread as
a share of the median, next to the bound BENCHMARK.json gives the metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--same-seed]
                                [--workloads ledger_large,served_mix]

Run i uses seed first-seed + i, or first-seed every time with --same-seed
(which leaves out the cost differences between documents of other seeds).
The workloads take turns, in alternating order, so that a slow stretch of
the host falls on all of them rather than on one. A spread under a third of
the bound is steady enough. Raw results go to .bench_out/steady_<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), done.returncode))
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    workloads = args.workloads.split(",")
    seeds = [args.first_seed + (0 if args.same_seed else i)
             for i in range(args.runs)]
    runs = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for workload in (workloads if i % 2 == 0 else workloads[::-1]):
            runs[workload].append(run_once(workload, seed, args.seconds))
    for workload in workloads:
        results = runs[workload]
        with open(os.path.join(ROOT, ".bench_out",
                               "steady_%s.json" % workload), "w") as out:
            json.dump(results, out, indent=1)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs of %d s, seeds %d..%d, failed share %s, correct %s"
              % (workload, args.runs, args.seconds, seeds[0], seeds[-1],
                 shares, all(r["correct"] for r in results)))
        print("  %-16s %12s %12s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound",
            "verdict"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "UNSTEADY")
            print("  %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.3f  %s"
                  % (name, median, q1, q3, min(values), max(values), spread,
                     bound, verdict))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
