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
cmake --build "$build_dir" -j"$(nproc)" --target bench_micro

cd "$repo_root"

rm -f BENCH_manifest.json

echo "== micro benchmarks =="
"$build_dir/bench/bench_micro" --benchmark_min_time=0.05

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
