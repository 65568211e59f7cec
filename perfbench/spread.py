#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every metric: the median of the runs and the interquartile range as a
share of the median (statistics.quantiles(values, n=4)), next to the bound
BENCHMARK.json gives it. Use it to check that a change to the benchmark
keeps it steady:

    python3 perfbench/spread.py --workload playback --runs 5
    python3 perfbench/spread.py --workload churn --runs 10 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--show", action="store_true", help="print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if out.returncode != 0 or result is None or not result["correct"]:
            sys.stderr.write(out.stdout[-3000:] + out.stderr[-3000:])
            sys.exit("run with seed %d failed (exit %d)" % (seed, out.returncode))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done" % seed, file=sys.stderr)

    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and args.trace == 0:
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
        print("%-40s median %14.4f  spread %6.3f  bound %s %s"
              % (name, med, spread, bound if bound is not None else "-", flag))
        if args.show:
            print("    " + " ".join("%.4g" % v for v in vals))


if __name__ == "__main__":
    main()
