#!/usr/bin/env bash
# Runs the reproduction benches and collects machine-readable timings into
# BENCH_pr9.json: per-bench wall-clock, the BENCHJSON self-reports the
# parallel benches print on stderr (trials, jobs, trials/sec), the digest
# cache counters and engine memory-model gauges from each bench's metrics
# snapshot, the bench_micro event-churn + draw-pipeline allocation audit
# (steady state must be 0 allocs/event and 0 allocs/draw), a cache-on vs
# cache-off comparison of the hash-dominated clean-rounds workload, and
# paired interleaved A/Bs. Each A/B interleaves its two modes and compares
# USER-time medians because this host's wall clock drifts ±15-25% across
# a session — a pair measured back-to-back and a median over n pairs are
# robust to that; two single runs an hour apart are not. Of the two
# fused lockstep engine pass A/Bs, the gated one runs the hash-dominated
# clean-rounds workload batched (--clean-rounds=$FUSED_ROUNDS
# --batch=$FUSED_K) with the fused pass on vs off (the PR-9 round-robin
# baseline) and must clear 1.3x user time; an ungated info A/B measures
# the same toggle on the event-bound bench_race_analysis duel ladder,
# where the shareable per-trial cost is a small fraction of the profile
# (see EXPERIMENTS.md for the split). Run from anywhere; builds are NOT
# triggered here — point BUILD_DIR at an existing build (default
# <repo>/build).
#
#   scripts/run_benches.sh                 # all benches, --jobs=$(nproc)
#   JOBS=1 scripts/run_benches.sh          # serial baseline
#   scripts/run_benches.sh --local         # write untracked BENCH_local.json
#   OUT=/tmp/b.json scripts/run_benches.sh # custom output path
#   scripts/run_benches.sh bench_race_analysis   # subset
#   FUSED_PAIRS=4 FUSED_K=4 scripts/run_benches.sh bench_satin_detection
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
jobs="${JOBS:-$(nproc)}"
out="${OUT:-$repo/BENCH_pr10.json}"
# Baseline for the delta table: the newest committed BENCH_pr*.json that
# isn't this run's own output (version-sorted, so pr10 beats pr9).
# Override with BASELINE=path.
auto_baseline="$(ls -1v "$repo"/BENCH_pr*.json 2>/dev/null |
                 grep -vFx "$out" | tail -1 || true)"
baseline="${BASELINE:-$auto_baseline}"
# Fail loudly on an unparseable baseline instead of emitting a silently
# empty delta table: a truncated or hand-mangled BENCH_pr*.json would
# otherwise read as "no baseline, nothing to compare".
if [ -n "$baseline" ] && [ -f "$baseline" ]; then
  if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$baseline" \
      2>/tmp/baseline_parse_err; then
    echo "run_benches.sh: baseline $baseline is not valid JSON:" >&2
    sed 's/^/  /' /tmp/baseline_parse_err >&2
    echo "fix or delete it, or point BASELINE= at a good record" >&2
    exit 1
  fi
fi
clean_rounds="${CLEAN_ROUNDS:-1900}"
if [ "${1:-}" = "--local" ]; then
  out="${OUT:-$repo/BENCH_local.json}"
  shift
fi

# Benches/examples that accept --jobs (fanned over sim::TrialRunner),
# then the serial ones — everything still gets wall-clock timed.
parallel_benches=(
  bench/bench_race_analysis
  bench/bench_fig4_threshold_stability
  bench/bench_table2_probing_threshold
  bench/bench_ablation_area_size
  bench/bench_ablation_randomization
  bench/bench_satin_detection
  examples/overhead_study
  examples/fault_storm
)
serial_benches=(
  bench/bench_table1_introspection_time
  bench/bench_tswitch_recovery
  bench/bench_fig3_race_timeline
  bench/bench_userprober
  bench/bench_fig7_overhead
)

if [ "$#" -gt 0 ]; then
  filtered=()
  for b in "${parallel_benches[@]}" "${serial_benches[@]}"; do
    for want in "$@"; do
      [ "$(basename "$b")" = "$want" ] && filtered+=("$b")
    done
  done
  benches=("${filtered[@]}")
else
  benches=("${parallel_benches[@]}" "${serial_benches[@]}")
fi

is_parallel() {
  local b
  for b in "${parallel_benches[@]}"; do
    [ "$b" = "$1" ] && return 0
  done
  return 1
}

tmp_err="$(mktemp)"
tmp_metrics="$(mktemp)"
trap 'rm -f "$tmp_err" "$tmp_metrics" "$tmp_metrics.jsonl"' EXIT

# digest_cache.{hits,misses,invalidations} from a metrics snapshot, as a
# JSON object (null when the snapshot has no cache counters).
cache_counters() {
  python3 - "$1" <<'PY'
import json, sys
try:
    counters = json.load(open(sys.argv[1])).get("counters", {})
except Exception:
    print("null"); raise SystemExit
keys = ("hits", "misses", "invalidations")
if not any(f"digest_cache.{k}" in counters for k in keys):
    print("null"); raise SystemExit
print(json.dumps({k: int(counters.get(f"digest_cache.{k}", 0)) for k in keys}))
PY
}

# engine.* memory-model gauges (pool occupancy, inline-vs-fallback
# callbacks, wheel-vs-heap admission) from a metrics snapshot; null when
# the snapshot carries none.
engine_counters() {
  python3 - "$1" <<'PY'
import json, sys
try:
    gauges = json.load(open(sys.argv[1])).get("gauges", {})
except Exception:
    print("null"); raise SystemExit
keys = ("pool_high_water", "pool_slab_grows", "pool_reuses",
        "cb_inline", "cb_fallback", "wheel_events", "heap_events")
if not any(f"engine.{k}" in gauges for k in keys):
    print("null"); raise SystemExit
print(json.dumps({k: gauges.get(f"engine.{k}", 0) for k in keys}))
PY
}

rows=""
for b in "${benches[@]}"; do
  exe="$build/$b"
  name="$(basename "$b")"
  if [ ! -x "$exe" ]; then
    echo "skip $name (not built: $exe)" >&2
    continue
  fi
  args=("--metrics=$tmp_metrics")
  if is_parallel "$b"; then args+=("--jobs=$jobs"); fi
  echo "== $name ${args[*]:-}" >&2
  : >"$tmp_metrics"
  start="$EPOCHREALTIME"
  "$exe" "${args[@]}" >/dev/null 2>"$tmp_err"
  end="$EPOCHREALTIME"
  wall="$(awk -v a="$start" -v b="$end" 'BEGIN{printf "%.6f", b-a}')"
  # The bench's own BENCHJSON line (stderr) carries trials/jobs/rate for
  # just the fanned-out portion; absent for serial benches.
  self="$(grep -o 'BENCHJSON {.*}' "$tmp_err" | tail -1 | sed 's/^BENCHJSON //' || true)"
  [ -n "$self" ] || self="null"
  cache="$(cache_counters "$tmp_metrics")"
  engine="$(engine_counters "$tmp_metrics")"
  row="$(printf '{"bench":"%s","wall_s":%s,"jobs":%s,"self":%s,"digest_cache":%s,"engine":%s}' \
         "$name" "$wall" "$jobs" "$self" "$cache" "$engine")"
  rows="${rows:+$rows,}$row"
  echo "   ${wall}s" >&2
done

# Allocation audit: the engine's zero-allocation contract, measured end
# to end. Every BM_EventChurn* bench must report exactly 0
# allocs_per_event, and every draw-pipeline bench (BM_Mt*/BM_Draw*) must
# report exactly 0 allocs_per_draw, or the script (and the CI gate that
# reruns this) fails.
churn="null"
micro="$build/bench/bench_micro"
if [ -x "$micro" ] && [ "$#" -eq 0 ]; then
  echo "== bench_micro event-churn + draw-pipeline allocation audit" >&2
  churn_json="$(mktemp)"
  "$micro" --benchmark_filter='BM_EventChurn|BM_Mt|BM_Draw' \
    --benchmark_format=json >"$churn_json" 2>"$tmp_err"
  churn="$(python3 - "$churn_json" <<'PY'
import json, sys
rows = []
bad = []
for b in json.load(open(sys.argv[1])).get("benchmarks", []):
    for key in ("allocs_per_event", "allocs_per_draw"):
        alloc = b.get(key)
        if alloc is None:
            continue
        rows.append({"bench": b["name"], key: alloc,
                     "time_ns": b.get("real_time")})
        if alloc != 0:
            bad.append(b["name"])
if bad:
    print(f"ERROR: nonzero allocs per event/draw in {bad}", file=sys.stderr)
    raise SystemExit(1)
print(json.dumps(rows))
PY
)"
  rm -f "$churn_json"
  echo "   all churn benches at 0 allocs/event, all draw benches at 0 allocs/draw" >&2
fi

# Cache on-vs-off on the hash-dominated clean-rounds workload: same
# simulation twice, stdout must be byte-identical, wall time must not be.
cache_cmp="null"
detect="$build/bench/bench_satin_detection"
if [ -x "$detect" ] && { [ "$#" -eq 0 ] || [[ " $* " == *" bench_satin_detection "* ]]; }; then
  echo "== bench_satin_detection --clean-rounds=$clean_rounds (cache on vs off)" >&2
  on_out="$(mktemp)" off_out="$(mktemp)"
  on_wall=""
  off_wall=""
  for mode in on off; do
    : >"$tmp_metrics"
    start="$EPOCHREALTIME"
    "$detect" "--clean-rounds=$clean_rounds" "--digest-cache=$mode" \
      "--metrics=$tmp_metrics" >"$([ "$mode" = on ] && echo "$on_out" || echo "$off_out")" 2>"$tmp_err"
    end="$EPOCHREALTIME"
    wall="$(awk -v a="$start" -v b="$end" 'BEGIN{printf "%.6f", b-a}')"
    if [ "$mode" = on ]; then on_wall="$wall"; on_cache="$(cache_counters "$tmp_metrics")"; else off_wall="$wall"; fi
    echo "   --digest-cache=$mode: ${wall}s" >&2
  done
  if ! diff -q "$on_out" "$off_out" >/dev/null; then
    echo "ERROR: clean-rounds stdout differs between --digest-cache=on and off" >&2
    diff "$on_out" "$off_out" >&2 || true
    rm -f "$on_out" "$off_out"
    exit 1
  fi
  echo "   stdout identical across modes" >&2
  speedup="$(awk -v on="$on_wall" -v off="$off_wall" 'BEGIN{printf "%.2f", (on > 0) ? off / on : 0}')"
  echo "   speedup (off/on): ${speedup}x" >&2
  cache_cmp="$(printf '{"rounds":%s,"wall_s_on":%s,"wall_s_off":%s,"speedup":%s,"stdout_identical":true,"digest_cache":%s}' \
               "$clean_rounds" "$on_wall" "$off_wall" "$speedup" "$on_cache")"
  rm -f "$on_out" "$off_out"
fi

# Paired interleaved A/B: the fused lockstep engine pass (PR-10) vs the
# PR-9 round-robin shard loop, on the workload the pass targets — K
# digest-cache steady-state replicas advancing in one shard, where the
# shareable per-trial fixed cost (kernel image construction, boot-state
# authorization, the first full hash cycle) dominates the per-trial
# variable cost. --fused=off runs the identical shard WITHOUT the shared
# kernel image / pristine digest base and without merged event frontiers,
# so the toggle isolates exactly the fused pass. stdout must stay
# byte-identical every pair; the ratio-of-medians is gated at >= 1.3x.
fused_ab="null"
fused_pairs="${FUSED_PAIRS:-8}"
fused_k="${FUSED_K:-8}"
fused_rounds="${FUSED_ROUNDS:-2000}"
if [ -x "$detect" ] && { [ "$#" -eq 0 ] || [[ " $* " == *" bench_satin_detection "* ]]; }; then
  echo "== bench_satin_detection paired A/B: --clean-rounds=$fused_rounds --batch=$fused_k fused on vs off (n=$fused_pairs pairs, user-time medians)" >&2
  a_out="$(mktemp)" b_out="$(mktemp)"
  a_times=() b_times=() ratios=()
  for i in $(seq 1 "$fused_pairs"); do
    ua="$( { TIMEFORMAT='%U'; time "$detect" "--clean-rounds=$fused_rounds" "--batch=$fused_k" --fused=off >"$a_out" 2>"$tmp_err"; } 2>&1 )"
    ub="$( { TIMEFORMAT='%U'; time "$detect" "--clean-rounds=$fused_rounds" "--batch=$fused_k" >"$b_out" 2>"$tmp_err"; } 2>&1 )"
    if ! diff -q "$a_out" "$b_out" >/dev/null; then
      echo "ERROR: stdout differs between --fused=off and --fused=on" >&2
      diff "$a_out" "$b_out" >&2 || true
      rm -f "$a_out" "$b_out"
      exit 1
    fi
    a_times+=("$ua")
    b_times+=("$ub")
    pair_ratio="$(awk -v a="$ua" -v b="$ub" 'BEGIN{printf "%.3f", (b > 0) ? a / b : 0}')"
    ratios+=("$pair_ratio")
    echo "   pair $i/$fused_pairs: round-robin ${ua}s  fused ${ub}s  (${pair_ratio}x)" >&2
  done
  rm -f "$a_out" "$b_out"
  median() {
    printf '%s\n' "$@" | sort -g |
      awk '{v[NR]=$1} END{if (NR%2) print v[(NR+1)/2]; else printf "%.3f\n", (v[NR/2]+v[NR/2+1])/2}'
  }
  a_med="$(median "${a_times[@]}")"
  b_med="$(median "${b_times[@]}")"
  fused_speedup="$(awk -v a="$a_med" -v b="$b_med" 'BEGIN{printf "%.2f", (b > 0) ? a / b : 0}')"
  fused_paired="$(median "${ratios[@]}")"
  if awk -v s="$fused_speedup" 'BEGIN{exit !(s < 1.3)}'; then
    echo "ERROR: fused engine pass speedup ${fused_speedup}x is below the 1.3x gate" >&2
    exit 1
  fi
  a_list="$(IFS=,; echo "${a_times[*]}")"
  b_list="$(IFS=,; echo "${b_times[*]}")"
  r_list="$(IFS=,; echo "${ratios[*]}")"
  fused_ab="$(printf '{"batch":%s,"clean_rounds":%s,"pairs":%s,"user_s_roundrobin":[%s],"user_s_fused":[%s],"pair_ratios":[%s],"user_s_roundrobin_median":%s,"user_s_fused_median":%s,"speedup":%s,"speedup_paired":%s,"stdout_identical":true}' \
              "$fused_k" "$fused_rounds" "$fused_pairs" "$a_list" "$b_list" "$r_list" "$a_med" "$b_med" "$fused_speedup" "$fused_paired")"
  echo "   medians: round-robin ${a_med}s  fused ${b_med}s  speedup ${fused_speedup}x (median of pair ratios: ${fused_paired}x)" >&2
fi

# Ungated info A/B: the same fused toggle on the event-bound duel ladder.
# Here the shared fixed cost is ~25% of a trial, so the honest expectation
# is ~1.1-1.2x (EXPERIMENTS.md has the profile split) — recorded for
# provenance, never gated.
fused_duel_ab="null"
fused_duel_pairs="${FUSED_DUEL_PAIRS:-5}"
if [ -x "$race" ] && { [ "$#" -eq 0 ] || [[ " $* " == *" bench_race_analysis "* ]]; }; then
  echo "== bench_race_analysis info A/B: --batch=$fused_k fused on vs off (n=$fused_duel_pairs pairs, ungated)" >&2
  a_out="$(mktemp)" b_out="$(mktemp)"
  a_times=() b_times=() ratios=()
  for i in $(seq 1 "$fused_duel_pairs"); do
    ua="$( { TIMEFORMAT='%U'; time "$race" "--batch=$fused_k" --fused=off >"$a_out" 2>"$tmp_err"; } 2>&1 )"
    ub="$( { TIMEFORMAT='%U'; time "$race" "--batch=$fused_k" >"$b_out" 2>"$tmp_err"; } 2>&1 )"
    if ! diff -q "$a_out" "$b_out" >/dev/null; then
      echo "ERROR: stdout differs between --fused=off and --fused=on on bench_race_analysis" >&2
      diff "$a_out" "$b_out" >&2 || true
      rm -f "$a_out" "$b_out"
      exit 1
    fi
    a_times+=("$ua")
    b_times+=("$ub")
    pair_ratio="$(awk -v a="$ua" -v b="$ub" 'BEGIN{printf "%.3f", (b > 0) ? a / b : 0}')"
    ratios+=("$pair_ratio")
    echo "   pair $i/$fused_duel_pairs: round-robin ${ua}s  fused ${ub}s  (${pair_ratio}x)" >&2
  done
  rm -f "$a_out" "$b_out"
  median() {
    printf '%s\n' "$@" | sort -g |
      awk '{v[NR]=$1} END{if (NR%2) print v[(NR+1)/2]; else printf "%.3f\n", (v[NR/2]+v[NR/2+1])/2}'
  }
  a_med="$(median "${a_times[@]}")"
  b_med="$(median "${b_times[@]}")"
  fused_duel_speedup="$(awk -v a="$a_med" -v b="$b_med" 'BEGIN{printf "%.2f", (b > 0) ? a / b : 0}')"
  fused_duel_paired="$(median "${ratios[@]}")"
  a_list="$(IFS=,; echo "${a_times[*]}")"
  b_list="$(IFS=,; echo "${b_times[*]}")"
  r_list="$(IFS=,; echo "${ratios[*]}")"
  fused_duel_ab="$(printf '{"batch":%s,"pairs":%s,"user_s_roundrobin":[%s],"user_s_fused":[%s],"pair_ratios":[%s],"user_s_roundrobin_median":%s,"user_s_fused_median":%s,"speedup":%s,"speedup_paired":%s,"stdout_identical":true,"gated":false}' \
              "$fused_k" "$fused_duel_pairs" "$a_list" "$b_list" "$r_list" "$a_med" "$b_med" "$fused_duel_speedup" "$fused_duel_paired")"
  echo "   medians: round-robin ${a_med}s  fused ${b_med}s  speedup ${fused_duel_speedup}x (median of pair ratios: ${fused_duel_paired}x, ungated)" >&2
fi

# Engine speedup on the headline detection bench vs the auto-detected
# baseline record.
detect_speedup="null"
if [ -n "$baseline" ] && [ -f "$baseline" ]; then
  detect_speedup="$(python3 - "$baseline" <<PY
import json
old = {b["bench"]: b["wall_s"] for b in json.load(open("$baseline")).get("benches", [])}
new = {r.get("bench"): r.get("wall_s") for r in json.loads('[$rows]')}
o, n = old.get("bench_satin_detection"), new.get("bench_satin_detection")
print(round(o / n, 3) if o and n else "null")
PY
)"
fi

baseline_name="$( [ -n "$baseline" ] && basename "$baseline" || echo null)"
printf '{"schema":"satin-bench-pr10/1","nproc":%s,"jobs":%s,"baseline":"%s","detection_speedup_vs_baseline":%s,"event_churn_allocs":%s,"clean_rounds_cache_comparison":%s,"fused_ab":%s,"fused_duel_ab":%s,"benches":[%s]}\n' \
  "$(nproc)" "$jobs" "$baseline_name" "$detect_speedup" "$churn" "$cache_cmp" "$fused_ab" "$fused_duel_ab" "$rows" >"$out"
[ "$fused_ab" = "null" ] || echo "fused A/B (clean-rounds --batch=$fused_k, on vs off) user-time speedup: ${fused_speedup}x (gate: 1.3x)" >&2
[ "$fused_duel_ab" = "null" ] || echo "fused duel A/B (bench_race_analysis --batch=$fused_k, on vs off) user-time speedup: ${fused_duel_speedup}x (info only)" >&2
echo "wrote $out" >&2
[ "$detect_speedup" = "null" ] || echo "bench_satin_detection speedup vs $baseline_name: ${detect_speedup}x" >&2

# Host-time delta table against the previous PR's record, when present.
if [ -n "$baseline" ] && [ -f "$baseline" ]; then
  python3 - "$baseline" "$out" <<'PY'
import json, sys

def rows(path):
    with open(path) as f:
        return {b["bench"]: b["wall_s"] for b in json.load(f).get("benches", [])}

import os
old, new = rows(sys.argv[1]), rows(sys.argv[2])
old_label = os.path.basename(sys.argv[1]).removesuffix(".json")
new_label = os.path.basename(sys.argv[2]).removesuffix(".json")
print(f"\nhost-time delta vs {sys.argv[1]}:")
print(f"{'bench':<32} {old_label + ' (s)':>14} {new_label + ' (s)':>14} {'delta':>8}")
for name in sorted(set(old) | set(new)):
    o, n = old.get(name), new.get(name)
    if o is None or n is None:
        status = "new" if o is None else "gone"
        val = n if n is not None else o
        print(f"{name:<32} {'-' if o is None else f'{o:14.3f}':>14} "
              f"{'-' if n is None else f'{n:14.3f}':>14} {status:>8}")
        continue
    delta = (n - o) / o * 100 if o > 0 else 0.0
    print(f"{name:<32} {o:>14.3f} {n:>14.3f} {delta:>+7.1f}%")
PY
fi
