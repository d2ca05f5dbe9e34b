#!/usr/bin/env bash
# Tier-1 gate: configure (ASan by default), build, run the full test
# suite, then smoke-test the quickstart flight/metrics export: draw the
# flight recording with satin_flightool chrome and validate the JSON.
# Run from anywhere; builds into <repo>/build-check.
#
#   scripts/check_tier1.sh              # ASan build + tests + flight smoke
#   SATIN_SANITIZE= scripts/check_tier1.sh   # plain build
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build-check}"
sanitize="${SATIN_SANITIZE-address}"

echo "== configure (SATIN_SANITIZE='$sanitize') =="
cmake -B "$build" -S "$repo" -DSATIN_SANITIZE="$sanitize" >/dev/null

echo "== build =="
cmake --build "$build" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

echo "== quickstart --flight smoke =="
flight="$build/quickstart.flt"
out="$build/quickstart.trace.json"
metrics="$build/quickstart.metrics.json"
rm -f "$flight" "$out" "$metrics"
"$build/examples/quickstart" --flight="$flight" --metrics="$metrics" >/dev/null
"$build/tools/satin_flightool" chrome "$flight" >"$out"

for f in "$out" "$metrics"; do
  [ -s "$f" ] || { echo "missing $f" >&2; exit 1; }
  python3 -m json.tool "$f" >/dev/null || { echo "invalid JSON: $f" >&2; exit 1; }
done

python3 - "$out" "$metrics" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") in ("B", "E")]
names = {e["name"] for e in events}
assert {"world_switch_in", "world_switch_out", "scan"} <= names, names
tracks = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
assert "core0/secure" in tracks, tracks
for name in ("world_switch_in", "world_switch_out", "secure_world", "scan"):
    per_track = {}
    for e in spans:
        if e["name"] == name:
            track = (e["pid"], e["tid"])
            b, end = per_track.get(track, (0, 0))
            per_track[track] = (b + (e["ph"] == "B"), end + (e["ph"] == "E"))
    assert per_track, f"no {name} spans"
    for track, (b, end) in per_track.items():
        assert abs(b - end) <= 1, (name, track, b, end)

metrics = json.load(open(sys.argv[2]))
counters = metrics["counters"]
assert counters.get("introspect.scans", 0) > 0, counters
assert counters.get("satin.detections", 0) > 0, counters
print(f"trace OK: {len(events)} events, "
      f"{counters['introspect.scans']} scans, "
      f"{counters['satin.detections']} detections")
EOF

echo "tier-1 check: PASS"
