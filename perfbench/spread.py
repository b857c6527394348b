#!/usr/bin/env python3
"""Spread report: how steady is each end-to-end metric across seeds?

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]

Runs perfbench/run.py once per seed on each workload (run_seconds from
BENCHMARK.json unless --seconds is given) and prints, for every end-to-end
metric, the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound.  Exits 1 when a run fails or when any
spread other than setup_s's exceeds its bound.  Run from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for metric in bench["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            mid = statistics.median(series)
            spread = (q3 - q1) / mid
            within = spread <= metric["bound"]
            if metric["name"] != "setup_s":
                ok = ok and within
            print(f"  {workload:13s} {metric['name']:12s} median {mid:12.6g} {metric['unit']:4s} "
                  f"spread {spread:7.2%}  bound {metric['bound']:.0%}  "
                  f"{'ok' if within else 'OVER'}{'' if spread * 3 <= metric['bound'] else ' (>1/3 bound)'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
