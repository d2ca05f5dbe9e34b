#!/usr/bin/env python3
"""Steadiness report for the repo benchmark.

    python3 perfbench/steadiness.py --runs 10 [--workloads duel,fleet]

Runs perfbench/run.py --trace 0 once per seed (1..runs) on each workload
and prints, per end-to-end metric and workload, the median, the quartiles,
the sample count and the spread (interquartile range over the median). A
metric whose spread exceeds its BENCHMARK.json bound is flagged; setup_s is
reported but exempt, as its median is what a later change is held to.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    flagged = 0
    print(f"{'workload':<9} {'metric':<17} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3} {'spread':>7} {'bound':>6}")
    for workload in args.workloads.split(","):
        samples = {}
        for seed in range(1, args.runs + 1):
            for name, value in run(workload, seed, args.seconds).items():
                samples.setdefault(name, []).append(value)
        for metric in spec["end_to_end"]:
            values = samples[metric["name"]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            over = spread > metric["bound"] and metric["name"] != "setup_s"
            flagged += over
            print(f"{workload:<9} {metric['name']:<17} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {len(values):>3} {spread:>7.3f} "
                  f"{metric['bound']:>6.2f}{'  OVER BOUND' if over else ''}",
                  flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
