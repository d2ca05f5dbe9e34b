#!/usr/bin/env python3
"""Paired, interleaved A/B of the repo benchmark between two trees.

    scripts/perf_ab.py --base HEAD~1 --workloads fleet --seeds 0,9 --pairs 10
    scripts/perf_ab.py --base main --head HEAD --workloads duel,storm --pairs 5
    scripts/perf_ab.py --base HEAD~1 --workloads fleet --pairs 3 --trace 1

Each side runs its own perfbench/run.py: the base is always a committed ref,
exported with `git archive` into .bench_build/ab/<sha>/ and built there; the
head is the working tree unless --head names a ref. Pairs alternate which
side runs first, so host drift lands on both sides alike. For every
workload, seed and metric the table gives both sides' median and quartiles,
the ratio of medians (head / base), the median of the per-pair ratios and
the pairs in which the head was better. A metric is "unresolved" when the
base's own quartile spread, relative to its median, exceeds the metric's
BENCHMARK.json bound (the host was too noisy to tell), unless every head
run is better than every base run. Otherwise it is "WORSE" when the head's
median is worse than the base's by more than that bound. Per-layer metrics
(--trace 1) carry no bound and are reported only. The "gain" column says
whether the row supports a gain claim: the head is better in at least 9 of
10 pairs (ties count for neither side), and its median is better than the
base's by more than the base's quartile distance.

The JSON written by --out holds every run's metrics and the table rows.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
WORKLOADS = ("duel", "fleet", "storm", "overhead")


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(ref):
    """The committed files of `ref` under .bench_build/ab/<sha>/."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    tree = AB_DIR / sha[:12]
    if not (tree / "perfbench" / "run.py").exists():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"perf_ab: git archive {ref} failed")
    return sha, tree


def build(tree):
    """Builds the tree's harness with its own perfbench/run.py."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "import run; run.build()")
    if subprocess.run([sys.executable, "-c", code], cwd=tree,
                      stdout=sys.stderr).returncode != 0:
        raise SystemExit(f"perf_ab: build failed in {tree}")


def run_bench(tree, workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perf_ab: no output from {tree}: {done.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(workload, seed, pairs, specs):
    rows = []
    for spec in specs:
        name, better = spec["name"], spec["better"]
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        base_med, head_med = statistics.median(base), statistics.median(head)
        ratios = [h / b for b, h in zip(base, head) if b]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        b_q1, b_q3 = quartiles(base)
        h_q1, h_q3 = quartiles(head)
        # Head minus base medians, positive when the head is better.
        gap = sign * (head_med - base_med)
        if better == "higher":
            every_run_better = min(head) > max(base)
        else:
            every_run_better = max(head) < min(base)
        row = {"workload": workload, "seed": seed, "metric": name,
               "better": better, "pairs": len(pairs),
               "base_median": base_med, "base_q1": b_q1, "base_q3": b_q3,
               "head_median": head_med, "head_q1": h_q1, "head_q3": h_q3,
               "ratio_of_medians": head_med / base_med if base_med else None,
               "median_pair_ratio": (statistics.median(ratios)
                                     if ratios else None),
               "pairs_better": wins, "identical": base == head,
               "every_run_better": every_run_better,
               "gain": 10 * wins >= 9 * len(pairs) and gap > b_q3 - b_q1}
        bound = spec.get("bound")
        if bound is None:
            row["verdict"] = "reported"
        else:
            spread = (b_q3 - b_q1) / abs(base_med) if base_med else 0.0
            if every_run_better:
                row["verdict"] = "within bound"
            elif base_med and spread > bound:
                row["verdict"] = "unresolved"
            elif base_med and -gap / abs(base_med) > bound:
                row["verdict"] = "WORSE"
            else:
                row["verdict"] = "within bound"
        rows.append(row)
    return rows


def fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.4g}"


def print_table(rows):
    print("| workload | seed | metric | base median [q1, q3] | "
          "head median [q1, q3] | ratio of medians | median pair ratio | "
          "pairs better | verdict | gain |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['workload']} | {r['seed']} | {r['metric']} | "
              f"{fmt(r['base_median'])} [{fmt(r['base_q1'])}, "
              f"{fmt(r['base_q3'])}] | {fmt(r['head_median'])} "
              f"[{fmt(r['head_q1'])}, {fmt(r['head_q3'])}] | "
              f"{fmt(r['ratio_of_medians'])} | "
              f"{fmt(r['median_pair_ratio'])} | "
              f"{r['pairs_better']}/{r['pairs']} | "
              f"{'identical' if r['identical'] else r['verdict']} | "
              f"{'holds' if r['gain'] else 'no'} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="committed ref for the base side")
    parser.add_argument("--head", default=None,
                        help="committed ref for the head side "
                             "(default: the working tree)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and row as JSON")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    for workload in workloads:
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload}")
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    base_sha, base_tree = export_tree(args.base)
    if args.head is None:
        head_sha, head_tree = "working-tree", ROOT
    else:
        head_sha, head_tree = export_tree(args.head)
    sides = {"base": base_tree, "head": head_tree}
    for tree in sides.values():
        build(tree)

    runs, rows = [], []
    for workload in workloads:
        for seed in seeds:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(sides[side], workload, seed,
                                           args.seconds, args.trace)
                    if not pair[side]["correct"]:
                        log(f"perf_ab: {side} not correct on {workload} "
                            f"seed {seed}, pair {i + 1}")
                log(f"{workload} seed {seed} pair {i + 1}/{args.pairs} "
                    f"({order[0]} first) done")
                pairs.append(pair)
            runs.append({"workload": workload, "seed": seed, "pairs": pairs})
            rows += summarize(workload, seed, pairs, specs)

    print(f"base {base_sha}, head {head_sha}, {args.pairs} pairs, "
          f"--seconds {args.seconds} --trace {args.trace}\n")
    print_table(rows)
    incorrect = sum(not p[side]["correct"] for run in runs
                    for p in run["pairs"] for side in ("base", "head"))
    if incorrect:
        print(f"\n{incorrect} runs reported correct: false")
    if args.out:
        report = {"schema": "perf_ab/1", "base": base_sha, "head": head_sha,
                  "host": {"nproc": os.cpu_count(),
                           "machine": platform.machine(),
                           "system": platform.platform()},
                  "seconds": args.seconds, "trace": args.trace,
                  "pairs": args.pairs, "runs": runs, "rows": rows,
                  "incorrect_runs": incorrect}
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
