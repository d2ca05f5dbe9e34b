#!/usr/bin/env bash
# Profiles one (or more) benches under gprof and drops a flat-profile
# summary next to the BENCH_pr*.json records in the repo root.
#
# Uses a dedicated -DSATIN_PROFILE=ON build tree (default
# <repo>/build-profile, override with PROFILE_BUILD_DIR) because -pg adds
# a counting prologue to every function: numbers from a profiled binary
# are NOT comparable to the plain build's, so the two must never share a
# build dir. The tree is configured/built here on first use, since
# nothing else wants one.
#
#   scripts/profile_bench.sh                          # default bench set
#   scripts/profile_bench.sh bench_race_analysis      # one bench
#   BENCH_ARGS='--clean-rounds=2000' scripts/profile_bench.sh bench_satin_detection
#   TOP_N=40 scripts/profile_bench.sh                 # longer summary
#
# Output: <repo>/PROFILE_<bench>.txt — gprof flat profile (top $TOP_N
# rows) + the exact command line and build flags that produced it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${PROFILE_BUILD_DIR:-$repo/build-profile}"
top_n="${TOP_N:-25}"
bench_args="${BENCH_ARGS:-}"

if ! command -v gprof >/dev/null 2>&1; then
  echo "profile_bench.sh: gprof not found on PATH" >&2
  exit 1
fi

benches=("$@")
if [ "${#benches[@]}" -eq 0 ]; then
  benches=(bench_race_analysis bench_satin_detection)
fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  echo "== configuring profile build: $build" >&2
  cmake -B "$build" -S "$repo" -DSATIN_PROFILE=ON >/dev/null
fi
if ! grep -q '^SATIN_PROFILE:BOOL=ON$' "$build/CMakeCache.txt"; then
  echo "profile_bench.sh: $build was not configured with -DSATIN_PROFILE=ON;" >&2
  echo "delete it or point PROFILE_BUILD_DIR elsewhere" >&2
  exit 1
fi

targets=()
for b in "${benches[@]}"; do targets+=("$(basename "$b")"); done
echo "== building: ${targets[*]}" >&2
cmake --build "$build" -j "$(nproc)" --target "${targets[@]}" >/dev/null

for b in "${benches[@]}"; do
  name="$(basename "$b")"
  exe="$build/bench/$name"
  [ -x "$exe" ] || { echo "skip $name (not built: $exe)" >&2; continue; }
  # gmon.out lands in the CWD of the profiled process; use a scratch dir
  # so parallel invocations and stale dumps can't mix.
  scratch="$(mktemp -d)"
  echo "== profiling $name $bench_args" >&2
  # shellcheck disable=SC2086  # BENCH_ARGS is intentionally word-split
  (cd "$scratch" && "$exe" $bench_args >/dev/null 2>&1)
  if [ ! -s "$scratch/gmon.out" ]; then
    echo "profile_bench.sh: $name produced no gmon.out (crashed before exit?)" >&2
    rm -rf "$scratch"
    exit 1
  fi
  out="$repo/PROFILE_$name.txt"
  # Through a file, not a pipe: under pipefail, head closing the pipe
  # early would fail the script (SIGPIPE) before the next bench.
  gprof -b -p "$exe" "$scratch/gmon.out" >"$scratch/flat.txt"
  {
    echo "# gprof flat profile: $name${bench_args:+ $bench_args}"
    echo "# build: -DSATIN_PROFILE=ON (-pg -fno-omit-frame-pointer), ${build#"$repo"/}"
    echo "# NOTE: -pg instruments every function; these times rank hot"
    echo "# spots but are not comparable to the plain build's wall clock."
    head -n "$((top_n + 5))" "$scratch/flat.txt"
  } >"$out"
  rm -rf "$scratch"
  echo "   wrote $out" >&2
done
