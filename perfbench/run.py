#!/usr/bin/env python3
"""Repo benchmark: SATIN campaign throughput and detection quality.

    python3 perfbench/run.py --workload duel --seed 3 --seconds 15 --trace 0

Builds the library and the satin_perfbench harness from source into
.bench_build/, times set-up, runs one workload, checks its outputs and
prints every metric by name and unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

perfbench/NOTES.md explains the workloads, the metrics and the paper
numbers the simulated metrics are printed beside.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUNS_DIR = BUILD_DIR / "runs"
DRIVER = BUILD_DIR / "satin_perfbench"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("duel", "fleet", "storm", "overhead")
# Per workload: trials (overhead: pass pairs) in one campaign, and the
# host seconds that campaign took on a 4-core host when the benchmark
# was defined. A run repeats the same campaign, each time into a fresh journal,
# until about --seconds are used (at least 3 times); host metrics are
# medians over the repeats, which a burst of contention from other
# tenants of a shared host moves less than one long campaign. The
# campaign never depends on --seconds, so its simulated results depend
# only on the seed.
CAMPAIGN = {"duel": (8, 3.5), "fleet": (100, 1.6), "storm": (8, 5.0),
            "overhead": (20, 1.5)}
# Trials (overhead: pass pairs) the traced run replays in-process.
REPLAY = {"duel": 3, "fleet": 40, "storm": 3, "overhead": 2}
# --seed picks one of these input sets (root-seed offsets); each has a
# stored reference. Offsets 1, 7 and 8 are left out on purpose: each
# breaks a model invariant on some trial of some workload (NOTES.md,
# "Known model defects"), and a benchmark input must be one on which
# nothing fails.
INPUT_SETS = (0, 2, 3, 4, 5, 6, 9, 10)
SETUP_REPEATS = 9

# Paper numbers the simulation is calibrated to (not validated against).
PAPER_DETECTIONS = "10/10 target-area checks alarmed (paper VI-B1)"
PAPER_OVERHEAD_PCT = 0.711  # Fig. 7, 1-task mean degradation
PAPER_GAP_S, PAPER_TGOAL_S = 141.0, 152.0  # VI-B1 target-area gap, Tgoal


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds the harness (a no-op when current)."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR / "CMakeFiles", ignore_errors=True)
            (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
            raise SystemExit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD_DIR), "--target",
               "satin_perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")


def fresh_dir(name):
    path = RUNS_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def harness(*args):
    done = subprocess.run([str(DRIVER), *map(str, args)], capture_output=True,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"satin_perfbench {' '.join(map(str, args))}: "
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload, slot):
    """Median wall time of whole harness invocations that stop once the
    first trial could run."""
    samples = []
    base = fresh_dir(f"setup-{workload}")
    base.mkdir()
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        harness("setup", "--workload", workload, "--seed", slot,
               "--dir", base / str(i))
        samples.append(time.perf_counter() - start)
    shutil.rmtree(base, ignore_errors=True)
    return statistics.median(samples)


def reference_key(workload, slot, trials):
    return f"{workload}/{slot}/{trials}"


def observed(result):
    """The simulated outcome a speed-only change must leave untouched."""
    sim = dict(result["sim"])
    stats_path = result.get("stats_path")
    if stats_path:
        sim["aggregate"] = json.loads(Path(stats_path).read_text())["aggregate"]
    return sim


def check(workload, result, reference):
    """Returns the list of failed output checks (empty = correct)."""
    failures = []
    if not result["ok"]:
        failures.append(f"run failed: {result['error']}")
    if result["completed"] != result["trials"] or result["failed"] != 0:
        failures.append(f"completed {result['completed']} of "
                        f"{result['trials']}")
    if not result["repeats_identical"]:
        failures.append("repeats of the campaign gave different results")
    if result["resumed"] != 0:
        failures.append(f"resumed {result['resumed']} trials: stale journal")
    sim = result["sim"]
    if workload == "duel":
        if sim["detection_rate"] != 1.0:
            failures.append(f"duel detection_rate {sim['detection_rate']}")
        if sim["false_positives"] or sim["false_negatives"]:
            failures.append("duel prober false positives/negatives")
    if workload == "storm":
        if sim["benign_confirmed_alarms"] != 0:
            failures.append("storm confirmed a benign area as tampered")
        if sim["target_area_alarms"] != sim["target_area_rounds"]:
            failures.append("storm missed a target-area round")
    if reference is not None and result["observed"] != reference:
        failures.append("simulated results differ from the stored reference")
    replay = result.get("replay")
    if replay is not None and not replay["records_match"]:
        failures.append(f"traced replay differs: {replay['mismatch']}")
    return failures


def end_to_end(workload, result, setup_s):
    per_repeat = result["trials_per_repeat"]
    sim = result["sim"]
    metrics = {
        "trials_per_s": (per_repeat / statistics.median(result["wall_s"]),
                         "trials/s"),
        "trials_per_cpu_s": (per_repeat / statistics.median(result["cpu_s"]),
                             "trials/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "failed_share": (result["failed"] / result["trials"], "ratio"),
        "secure_share": (sim["secure_share"], "ratio"),
    }
    if workload == "overhead":
        metrics["overhead_pct"] = (sim["overhead_pct"], "%")
    else:
        metrics["detection_rate"] = (sim["detection_rate"], "ratio")
        metrics["false_alarm_rate"] = (sim["false_alarm_rate"], "ratio")
    return metrics


def print_paper_references(workload, result):
    sim = result["sim"]
    print("calibration: the model is tuned to these paper numbers, not "
          "independently validated; no error figure is claimed")
    if workload == "overhead":
        print(f"  overhead_pct {sim['overhead_pct']:.4f} %   "
              f"(paper Fig. 7, 1-task: {PAPER_OVERHEAD_PCT} %)")
        return
    print(f"  detection_rate {sim['detection_rate']:.4f} "
          f"({sim['target_area_alarms']:.0f}/{sim['target_area_rounds']:.0f})"
          f"   ({PAPER_DETECTIONS})")
    if workload == "duel":
        gap = sim["avg_target_gap_s"]
        print(f"  mean target-area gap {gap:.2f} s at Tgoal 19 s = "
              f"{gap / 19.0:.3f} Tgoal   (paper VI-B1: {PAPER_GAP_S:.0f} s "
              f"at Tgoal {PAPER_TGOAL_S:.0f} s = "
              f"{PAPER_GAP_S / PAPER_TGOAL_S:.3f} Tgoal)")


def run_once(workload, slot, repeats, replay, run_name):
    run_dir = fresh_dir(run_name)
    try:
        args = ["run", "--workload", workload, "--seed", slot,
                "--trials", CAMPAIGN[workload][0], "--repeats", repeats,
                "--dir", run_dir]
        if replay:
            args += ["--replay", replay]
        result = harness(*args)
        result["observed"] = observed(result)
        if replay:
            spans = run_dir / "spans.jsonl"
            shutil.copyfile(spans, BUILD_DIR / f"spans-{workload}.jsonl")
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def record_references():
    """Stores the simulated outcome of every workload and input set."""
    build()
    references = (json.loads(REFERENCES.read_text())
                  if REFERENCES.exists() else {})
    broken = []
    for workload in WORKLOADS:
        trials = CAMPAIGN[workload][0]
        for slot in INPUT_SETS:
            result = run_once(workload, slot, 1, 0, f"ref-{workload}")
            failures = check(workload, result, None)
            if failures:
                broken.append(f"{workload} input set {slot}: {failures}")
                continue
            references[reference_key(workload, slot, trials)] = \
                result["observed"]
            log(f"recorded {workload} input set {slot}")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                          + "\n")
    if broken:
        raise SystemExit("not recorded:\n" + "\n".join(broken))


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="store the simulated outcome of every workload "
                             "and input set in perfbench/references.json")
    args = parser.parse_args()
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    end_to_end_spec, per_layer_spec = declared_metrics()
    build()
    workload = args.workload
    slot = INPUT_SETS[args.seed % len(INPUT_SETS)]
    trials, campaign_s = CAMPAIGN[workload]
    repeats = max(3, round(args.seconds / campaign_s))
    references = (json.loads(REFERENCES.read_text())
                  if REFERENCES.exists() else {})
    reference = references.get(reference_key(workload, slot, trials))
    if reference is None:
        log(f"perfbench: no stored reference for {workload} input set "
            f"{slot}; only the invariants are checked")

    if args.trace:
        # Host throughput is not reported here; three repeats suffice for
        # the repeat-identity check and campaign CPU per trial.
        repeats = 3
        result = run_once(workload, slot, repeats, REPLAY[workload], workload)
    else:
        setup_s = setup_seconds(workload, slot)
        result = run_once(workload, slot, repeats, 0, workload)
    failures = check(workload, result, reference)

    print(f"workload {workload}: {repeats} x {trials} "
          f"{'pass pairs' if workload == 'overhead' else 'trials'}, "
          f"{result['jobs']:.0f} workers, input set {slot} "
          f"(seed {args.seed}), trace {args.trace}")
    measured = {}
    if args.trace:
        layers = result["layers"]
        names = [m["name"] for m in per_layer_spec]
        if set(layers) != set(names):
            failures.append("per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(layers) ^ set(names))}")
        for m in per_layer_spec:
            value = layers.get(m["name"], 0.0)
            measured[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
        print(f"obs.tracing_overhead {layers['obs.tracing_overhead']:.4f} "
              f"(traced / untraced in-process trial time, "
              f"{result['replay']['trials']:.0f} trials; records "
              f"{'match' if result['replay']['records_match'] else 'DIFFER'})")
        print("self time by span (s):")
        for span in sorted(result["spans"], key=lambda s: -s["self_s"]):
            print(f"  {span['name']:<32} calls {span['calls']:>6.0f} "
                  f"total {span['total_s']:>9.4f} self {span['self_s']:>9.4f}")
    else:
        metrics = end_to_end(workload, result, setup_s)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<20} {value:>14.6g} {unit}")
        for name in ("detection_rate", "false_alarm_rate", "overhead_pct"):
            if name not in metrics:
                print(f"  {name:<20} {'n/a':>14} (not defined on {workload})")
        for m in end_to_end_spec:
            measured[m["name"]] = {"value": metrics[m["name"]][0],
                                   "unit": m["unit"]}
        print_paper_references(workload, result)

    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": not failures,
                      "attempted": int(result["trials"]),
                      "failed": int(result["failed"]), "metrics": measured}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
