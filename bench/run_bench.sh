#!/usr/bin/env bash
# Builds the Release tree and runs the perf benches, leaving the
# machine-readable engine counters in BENCH_detection.json and the run
# manifest (config, git describe, phase times, metrics snapshot) in
# BENCH_manifest.json.  The script FAILS if either artifact is missing
# or malformed, so CI catches a silently broken observability layer.
#
# Usage: bench/run_bench.sh [build-dir]
# Knobs: FASTMON_FAST=1 for a quick smoke run; FASTMON_MAX_GATES /
# FASTMON_MAX_FAULTS / FASTMON_PROFILES as documented in
# bench/bench_common.hpp.  FASTMON_TRACE=<path> additionally captures a
# Chrome trace of the bench run.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)" \
    --target bench_micro bench_fig3 bench_campaign bench_check

cd "$repo_root"

rm -f BENCH_manifest.json

echo "== micro benchmarks =="
"$build_dir/bench/bench_micro" --benchmark_min_time=0.05

echo
echo "== campaign engine (BENCH_campaign.json) =="
"$build_dir/bench/bench_campaign"

echo
echo "== detection engine counters (BENCH_detection.json) =="
cat BENCH_detection.json

# --- artifact validation: fail loudly, not silently -------------------
check_json() {
    local file="$1"
    if [[ ! -f "$file" ]]; then
        echo "ERROR: bench did not produce $file" >&2
        exit 1
    fi
    if ! python3 -m json.tool "$file" > /dev/null 2>&1; then
        echo "ERROR: $file is not valid JSON" >&2
        exit 1
    fi
}

check_json BENCH_detection.json
check_json BENCH_manifest.json
check_json BENCH_campaign.json
check_json BENCH_campaign.heartbeat.json

# The campaign artifact must carry the prediction-quality blocks and a
# non-degraded flow status for every entry.
python3 - <<'EOF'
import json, sys
with open("BENCH_campaign.json") as f:
    doc = json.load(f)
entries = doc.get("entries")
if not entries:
    sys.exit("ERROR: BENCH_campaign.json has no campaign entries")
for entry in entries:
    missing = [k for k in ("campaign", "aggregate", "run") if k not in entry]
    if missing:
        sys.exit(f"ERROR: campaign entry missing blocks: {missing}")
    label = entry["campaign"].get("circuit", "?")
    agg = entry["aggregate"]
    cls = agg.get("classification", {})
    for key in ("roc_auc", "average_precision"):
        value = cls.get(key)
        if value is None or not (0.0 <= value <= 1.0):
            sys.exit(f"ERROR: {label}: classification.{key}={value!r} "
                     "outside [0, 1]")
    for block in ("lead_time_years", "wearout"):
        if block not in agg:
            sys.exit(f"ERROR: {label}: aggregate missing '{block}'")
    status = entry["run"].get("status", {})
    if status.get("outcome") != "ok":
        sys.exit(f"ERROR: {label}: campaign flow status degraded: "
                 f"{json.dumps(status)}")
    print(f"campaign ok: {label} "
          f"(pop {entry['campaign']['population']:.0f}, "
          f"ROC AUC {cls['roc_auc']:.3f}, AP {cls['average_precision']:.3f})")

# The demo entry carries the batched SoA vs scalar differential: the
# deterministic blocks must be identical and the recorded speedup a
# positive finite ratio (regressions show up here before the aggregate
# wall time moves).
demo = entries[0]
if demo.get("batch_check") != "identical":
    sys.exit(f"ERROR: campaign differential diverged "
             f"(batch_check={demo.get('batch_check')!r})")
value = demo.get("batch_speedup")
if not isinstance(value, (int, float)) or not (value > 0.0):
    sys.exit(f"ERROR: demo entry batch_speedup={value!r} is not a "
             "positive number")
width = demo.get("batch_width")
if not isinstance(width, int) or width < 1:
    sys.exit(f"ERROR: demo entry batch_width={width!r} is not a "
             "positive integer")
dps = demo.get("devices_per_sec")
if not isinstance(dps, (int, float)) or not (dps > 0.0):
    sys.exit(f"ERROR: demo entry devices_per_sec={dps!r} is not a "
             "positive number")
if demo.get("telemetry_check") != "identical":
    sys.exit(f"ERROR: telemetry changed the deterministic blocks "
             f"(telemetry_check={demo.get('telemetry_check')!r})")

# Mission-profile section: every built-in deployment ran its own
# scalar-vs-batched differential, and contrasting profiles must keep
# producing separated failure-year / ROC distributions.
if demo.get("mission_check") != "identical":
    sys.exit(f"ERROR: mission-profile differential diverged "
             f"(mission_check={demo.get('mission_check')!r})")
if demo.get("profiles_distinct") != "distinct":
    sys.exit(f"ERROR: built-in mission profiles no longer separate "
             f"(profiles_distinct={demo.get('profiles_distinct')!r})")
missions = demo.get("mission_profiles", {})
for name in ("server_247", "automotive_thermal_cycling", "mobile_bursty"):
    row = missions.get(name)
    if not row:
        sys.exit(f"ERROR: demo entry missing mission_profiles[{name!r}]")
    for key in ("roc_auc", "failure_p50", "lead_wide_p50", "failed",
                "failed_by_mechanism"):
        if key not in row:
            sys.exit(f"ERROR: mission_profiles[{name!r}] missing {key!r}")
    print(f"mission ok: {name} (ROC AUC {row['roc_auc']:.3f}, "
          f"failure p50 {row['failure_p50']:.2f} y, "
          f"failed {row['failed']:.0f})")
print(f"campaign differentials ok: identical blocks at width {width}, "
      f"batched {demo['batch_speedup']:.2f}x vs scalar, "
      f"{dps:.0f} devices/sec")

# The heartbeat sidecar from the telemetry pass must have reached an
# honest terminal state covering the whole population, and its sketch
# telemetry must be embedded in the report's run block.
with open("BENCH_campaign.heartbeat.json") as f:
    hb = json.load(f)
if hb.get("schema") != "fastmon-heartbeat-v1":
    sys.exit(f"ERROR: unexpected heartbeat schema {hb.get('schema')!r}")
if hb.get("state") != "finished":
    sys.exit(f"ERROR: heartbeat ended in state {hb.get('state')!r}, "
             "expected 'finished'")
pop = demo["campaign"]["population"]
if hb.get("devices_done") != pop:
    sys.exit(f"ERROR: heartbeat devices_done={hb.get('devices_done')!r} "
             f"!= population {pop}")
telemetry = demo["run"].get("telemetry", {})
for key in ("roll_latency_us", "first_alert_years", "failure_years"):
    sketch = telemetry.get(key, {})
    if "summary" not in sketch or "sketch" not in sketch:
        sys.exit(f"ERROR: run.telemetry.{key} missing summary/sketch")
print(f"heartbeat ok: state={hb['state']}, "
      f"{hb['devices_done']:.0f}/{hb['devices_total']:.0f} devices, "
      f"{len(hb.get('workers', []))} worker slot(s)")
EOF

# The manifest must carry the blocks perf tracking relies on.
python3 - <<'EOF'
import json, sys
with open("BENCH_manifest.json") as f:
    m = json.load(f)
missing = [k for k in ("tool", "config", "phases", "metrics",
                       "total_wall_seconds") if k not in m]
if missing:
    sys.exit(f"ERROR: BENCH_manifest.json missing blocks: {missing}")
if not m["phases"]:
    sys.exit("ERROR: BENCH_manifest.json has no recorded phases")
print("manifest ok:", ", ".join(p["name"] for p in m["phases"]),
      f"({m['total_wall_seconds']:.2f} s total)")
EOF

echo "artifacts validated  [OK]"

# --- bench-history regression gate -----------------------------------
# Gate this run against the trajectory of comparable past runs (same
# fast flag + batch width) in BENCH_history.jsonl, THEN append it so
# the ledger only accumulates runs that passed both the schema
# validation above and the gate itself.  With fewer than three
# comparable entries the gate passes with a note, so fresh checkouts
# and regime changes (new width, new fast flag) bootstrap cleanly.
echo
echo "== bench history gate (BENCH_history.jsonl) =="
fast_args=()
if [[ "${FASTMON_FAST:-0}" == "1" ]]; then
    fast_args+=(--fast)
fi
git_describe="$(git -C "$repo_root" describe --always --dirty 2>/dev/null \
                || echo unknown)"
"$build_dir/tools/bench_check" check "${fast_args[@]}"
"$build_dir/tools/bench_check" append --git "$git_describe" "${fast_args[@]}"
