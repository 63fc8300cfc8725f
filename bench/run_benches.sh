#!/usr/bin/env bash
# Runs the micro-benchmark substrate with JSON output so each PR can record
# a perf-trajectory point (BENCH_micro.json) comparable across revisions,
# then runs a short traced campaign to record the measured fault-activation
# summary (BENCH_activation.json), and finally measures the warm-boot
# snapshot speedup (BENCH_snapshot.json): the micro-level cold-reboot vs
# snapshot-restore ratio plus an end-to-end quick campaign A/B with
# --cold-boot (results are bit-identical; only wall time differs), and the
# campaign-store A/B (BENCH_store.json): cold vs all-hit resume vs
# incremental re-run after a one-fault-type edit, artifacts byte-compared.
#
# Usage: bench/run_benches.sh [build-dir] [out.json] [extra benchmark args...]
set -euo pipefail

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_micro.json}
ACT_OUT=${ACT_OUT:-BENCH_activation.json}
SNAP_OUT=${SNAP_OUT:-BENCH_snapshot.json}
OBS_OUT=${OBS_OUT:-BENCH_obs.json}
STORE_OUT=${STORE_OUT:-BENCH_store.json}
[ $# -ge 1 ] && shift
[ $# -ge 1 ] && shift

# Refuse to record trajectory points from anything but a Release build.
# The committed BENCH_*.json are compared across revisions; a Debug (or
# unset-type) build skews every number 5-20x and poisons the trajectory.
# Note the google-benchmark context's own "library_build_type" reports how
# the *library* was built (the distro package says "debug"), not this
# project — so the guard reads the project's CMakeCache.txt instead, and we
# inject an explicit build_type context key the micro schema checks.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "error: $BUILD_DIR/CMakeCache.txt not found — configure first:" \
       "cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "error: $BUILD_DIR is configured as '${BUILD_TYPE:-<empty>}', not" \
       "Release — benchmark numbers from it are not comparable." >&2
  echo "  reconfigure: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" \
       "&& cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

for bin in bench/micro_substrate bench/table5_campaign bench/campaign_resume \
           tools/json_check tools/gfbench tools/bench_diff tools/gfcheck; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "error: $BUILD_DIR/$bin not built" \
         "(cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release &&" \
         "cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

# Snapshot the previously-recorded baselines before this run overwrites
# them: tools/bench_diff gates the new numbers against these at the end
# (ratio metrics only, tolerance BENCH_DIFF_TOL, default 15%). Set
# BENCH_DIFF=0 to record a fresh trajectory point without gating.
BASE_DIR=$(mktemp -d)
for f in "$OUT" "$SNAP_OUT" "$OBS_OUT" "$STORE_OUT"; do
  [ -f "$f" ] && cp "$f" "$BASE_DIR/$(basename "$f")"
done

"$BUILD_DIR/bench/micro_substrate" \
  --benchmark_context=build_type=Release \
  --benchmark_out="$OUT" --benchmark_out_format=json "$@"

# Short traced campaign: wide stride + compressed exposure/baseline windows
# keep this to a few seconds while still exercising every fault type.
"$BUILD_DIR/bench/table5_campaign" --quick --scale 0.05 --baseline-ms 2000 \
  --activation-json "$ACT_OUT" > /dev/null
echo "activation summary written to $ACT_OUT" >&2

# Warm-boot snapshot speedup. Micro ratio: BM_ColdReboot vs
# BM_SnapshotRestore real_time pulled from the benchmark JSON (the subsystem's
# acceptance bar is ratio >= 10). End-to-end: a bring-up-heavy campaign
# (many short shard tasks — the fan-out regime snapshots exist for) timed
# with snapshots on (default) and off (--cold-boot); results are
# bit-identical, only wall time differs.
ratio_json=$(awk '
  /"name":/ { name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name) }
  /"real_time":/ {
    t = $0; sub(/.*"real_time": /, "", t); sub(/,.*/, "", t)
    if (name == "BM_ColdReboot" && !(name in seen)) { cold = t; seen[name] = 1 }
    if (name == "BM_SnapshotRestore" && !(name in seen)) { warm = t; seen[name] = 1 }
  }
  END {
    if (cold == "" || warm == "" || warm + 0 == 0) exit 1
    printf "  \"cold_reboot_ns\": %s,\n  \"snapshot_restore_ns\": %s,\n  \"micro_speedup\": %.2f", \
           cold, warm, cold / warm
  }' "$OUT")

AB_ARGS=(--stride 48 --iterations 3 --chunk 4 --scale 0.02
         --baseline-ms 500 --jobs 4)
now_ms() { date +%s%3N; }
t0=$(now_ms)
"$BUILD_DIR/bench/table5_campaign" "${AB_ARGS[@]}" > /dev/null 2>&1
warm_ms=$(( $(now_ms) - t0 ))
t0=$(now_ms)
"$BUILD_DIR/bench/table5_campaign" "${AB_ARGS[@]}" --cold-boot > /dev/null 2>&1
cold_ms=$(( $(now_ms) - t0 ))

{
  echo "{"
  echo "$ratio_json,"
  echo "  \"campaign_warm_ms\": $warm_ms,"
  echo "  \"campaign_cold_ms\": $cold_ms,"
  awk -v c="$cold_ms" -v w="$warm_ms" \
    'BEGIN { printf("  \"campaign_speedup\": %.2f\n", (w > 0) ? c / w : 0) }'
  echo "}"
} > "$SNAP_OUT"
echo "snapshot speedup written to $SNAP_OUT" >&2

# Observability overhead (BENCH_obs.json). Micro: VM dispatch rate with obs
# compiled in (acceptance bar: >= 95% of the pre-obs baseline — counters are
# harvested at run boundaries, the loop only keeps a local step register)
# and the API-call A/B against the one live sink (BM_ApiCallAlloc vs
# BM_ApiCallAllocObs). End-to-end: the same quick campaign with and without
# the artifact pipeline (per-task TaskObs + merge + manifest/journal/trace
# rendering); results are bit-identical, only wall time differs.
obs_json=$(awk '
  /"name":/ { name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name) }
  /"items_per_second":/ {
    t = $0; sub(/.*"items_per_second": /, "", t); sub(/,.*/, "", t)
    if (name ~ /^BM_VmDispatch\/100000$/ && !(name in seen)) {
      dispatch = t; seen[name] = 1
    }
    if (name ~ /^BM_VmDispatchProfiled\/100000$/ && !(name in seen)) {
      profiled = t; seen[name] = 1
    }
  }
  /"real_time":/ {
    t = $0; sub(/.*"real_time": /, "", t); sub(/,.*/, "", t)
    if (name == "BM_ApiCallAlloc" && !(name in seen)) { plain = t; seen[name] = 1 }
    if (name == "BM_ApiCallAllocObs" && !(name in seen)) { obs = t; seen[name] = 1 }
  }
  END {
    if (dispatch == "" || profiled == "" || plain == "" || obs == "" || \
        plain + 0 == 0 || dispatch + 0 == 0) exit 1
    printf "  \"vm_dispatch_items_per_s\": %s,\n", dispatch
    printf "  \"vm_dispatch_profiled_items_per_s\": %s,\n", profiled
    printf "  \"profiler_armed_retention_rate\": %.3f,\n", profiled / dispatch
    printf "  \"api_call_ns\": %s,\n  \"api_call_obs_ns\": %s,\n", plain, obs
    printf "  \"api_obs_overhead\": %.3f", obs / plain
  }' "$OUT")

# Acceptance bar: the armed sampler (stride 4096) must retain >= 80% of the
# plain dispatch rate. Disarmed retention is covered by BM_VmDispatch itself
# (the countdown idles; the branch never fires) and the committed-baseline
# gate below.
echo "$obs_json" | awk '/profiler_armed_retention_rate/ {
    r = $0; sub(/.*: /, "", r); sub(/,.*/, "", r)
    if (r + 0 < 0.80) {
      printf "error: armed profiler retains only %.1f%% of dispatch rate (bar: 80%%)\n", r * 100 > "/dev/stderr"
      exit 1
    }
  }'

OBS_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR" "$BASE_DIR"' EXIT
t0=$(now_ms)
"$BUILD_DIR/bench/table5_campaign" "${AB_ARGS[@]}" \
  --metrics-json "$OBS_DIR/manifest.json" \
  --journal-out "$OBS_DIR/journal.jsonl" \
  --chrome-trace "$OBS_DIR/trace.json" \
  --html-report "$OBS_DIR/report.html" \
  --sched-json "$OBS_DIR/sched.json" > /dev/null 2>&1
obs_ms=$(( $(now_ms) - t0 ))

{
  echo "{"
  echo "$obs_json,"
  echo "  \"campaign_plain_ms\": $warm_ms,"
  echo "  \"campaign_obs_ms\": $obs_ms,"
  awk -v p="$warm_ms" -v o="$obs_ms" \
    'BEGIN { printf("  \"campaign_obs_overhead\": %.3f\n", (p > 0) ? o / p : 0) }'
  echo "}"
} > "$OBS_OUT"
echo "obs overhead written to $OBS_OUT" >&2

# Campaign-store A/B (BM_CampaignResume / BM_CampaignIncremental): the same
# campaign cold, resumed against the populated store (all hits), and after a
# one-fault-type edit (only that type's keys re-execute). The bench exits
# non-zero if the resume artifacts are not byte-identical to the cold run's
# or the hit/miss pattern is wrong (acceptance bar: incremental >= 5x).
"$BUILD_DIR/bench/campaign_resume" --jobs 4 --store-dir "$OBS_DIR/store" \
  --out "$STORE_OUT" 2> /dev/null
echo "campaign store A/B written to $STORE_OUT" >&2

# Deterministic profiler + cross-campaign diff: a short profiled campaign
# emits the cycle-profile artifact, the flamegraph and a profiled manifest;
# a self-diff of that manifest must be drift-free (exit 0).
"$BUILD_DIR/bench/table5_campaign" "${AB_ARGS[@]}" \
  --metrics-json "$OBS_DIR/pmanifest.json" \
  --profile-json "$OBS_DIR/profile.json" \
  --flame-out "$OBS_DIR/flame.txt" > /dev/null 2>&1
if [ ! -s "$OBS_DIR/flame.txt" ]; then
  echo "error: profiled campaign produced an empty flamegraph" >&2
  exit 1
fi
"$BUILD_DIR/tools/gfbench" diff "$OBS_DIR/pmanifest.json" \
  "$OBS_DIR/pmanifest.json" --json "$OBS_DIR/selfdiff.json" > /dev/null
echo "profiled campaign + self-diff ok" >&2

# Differential fuzz budget: the same fixed seed range the fuzz CI job runs
# (GFCHECK_CASES to scale it; every failure prints a replayable --case-seed
# repro line). Curated hardware gets the full oracle sweep on every bench
# run, not just on CI pushes.
"$BUILD_DIR/tools/gfcheck" --seed 1 --cases "${GFCHECK_CASES:-25}" \
  --scratch "$OBS_DIR/gfcheck-scratch" > /dev/null
echo "gfcheck fuzz budget ok (${GFCHECK_CASES:-25} cases/engine)" >&2

# Validate every emitted JSON artifact; a malformed emitter fails the run
# loudly here instead of producing quietly-broken dashboards downstream.
"$BUILD_DIR/tools/json_check" --schema activation "$ACT_OUT"
"$BUILD_DIR/tools/json_check" --schema snapshot "$SNAP_OUT"
"$BUILD_DIR/tools/json_check" --schema obs "$OBS_OUT"
"$BUILD_DIR/tools/json_check" --schema micro "$OUT"
"$BUILD_DIR/tools/json_check" --schema sched "$OBS_DIR/sched.json"
"$BUILD_DIR/tools/json_check" --schema store "$STORE_OUT"
"$BUILD_DIR/tools/json_check" --schema manifest "$OBS_DIR/manifest.json"
"$BUILD_DIR/tools/json_check" --schema manifest "$OBS_DIR/pmanifest.json"
"$BUILD_DIR/tools/json_check" --schema profile "$OBS_DIR/profile.json"
"$BUILD_DIR/tools/json_check" --schema diff "$OBS_DIR/selfdiff.json"
"$BUILD_DIR/tools/json_check" --schema chrome "$OBS_DIR/trace.json"
"$BUILD_DIR/tools/json_check" --jsonl "$OBS_DIR/journal.jsonl"
echo "artifact validation ok" >&2

# Regression gate: the fresh numbers against the baselines committed before
# this run. Only dimensionless ratio metrics gate; absolute timings are
# machine-dependent and informational. BENCH_micro.json is all absolute
# timings, so it records the trajectory but never gates.
if [ "${BENCH_DIFF:-1}" != "0" ]; then
  for f in "$SNAP_OUT" "$OBS_OUT" "$STORE_OUT"; do
    base="$BASE_DIR/$(basename "$f")"
    [ -f "$base" ] || continue
    "$BUILD_DIR/tools/bench_diff" "$base" "$f" \
      --tolerance "${BENCH_DIFF_TOL:-15}"
  done
  echo "bench_diff gate ok" >&2
fi
