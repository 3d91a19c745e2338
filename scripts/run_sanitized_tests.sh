#!/usr/bin/env bash
# Build with sanitizers and run the concurrency-sensitive test suites
# (telemetry registry, SPSC queue, multi-core runtime, flight recorder,
# the fault-injection chaos suite in tests/test_resilience.cpp, the
# live query plane — including the QueryPlane ingest/query hammer in
# tests/test_query_engine.cpp, where readers race worker publishes — and
# the accuracy-audit plane's audit-under-ingest hammer in
# tests/test_audit.cpp, where a reader thread snapshots the auditors'
# relaxed single-writer cells while the multicore engine ingests).
# The telemetry fast path is wait-free single-writer atomics and the
# multi-core workers drain shared-nothing shards through SPSC queues —
# exactly the kind of code where a stray data race or UB hides until a
# sanitizer shakes it out.
#
# Three phases, because TSan cannot be combined with ASan:
#   1. address,undefined,float-cast-overflow over the full concurrency
#      filter (now including the WSAF layout/bucket/snapshot differential
#      suites, whose SIMD tag-compare and byte-patching code is exactly
#      what UBSan/ASan are for, the FlowRegulator layout-memo, RccConfig
#      and batch-equivalence suites, which index the memo by hash bits, and
#      the VvLayout, RccSketch and RccVectorSizeTest suites, whose
#      branch-free encode and probe shift and rotate by drawn amounts).
#      GCC's -fsanitize=undefined leaves out float-cast-overflow (a double
#      outside an integer type's range cast to it), so it is named
#      explicitly;
#   2. thread over the MultiCore + SPSC suites, repeated 3x so the
#      determinism test (same trace => per-shard WSAF bit-identical across
#      runs and to a serial process() reference) gets multiple thread
#      schedules to betray a race under;
#   3. the same thread phase with IM_WSAF_LAYOUT=bucketed, so the
#      worker/WSAF paths race-check against the bucketed layout too.
# Set SANITIZE to run a single custom phase instead (REPEAT=n to repeat).
#
# Usage: scripts/run_sanitized_tests.sh [extra ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER=${1:-"Counter|Gauge|HistogramMetric|Export|Reporter|Integration|SpscQueue|MultiCore|FlightRecorder|FaultPoint|OverloadChaos|OverloadPaced|Watchdog|SnapshotChannel|QueryEngine|QueryPlane|AuditSampling|AuditDifferential|AuditConcurrency|AuditSummaryMerge|WsafBucket|WsafLayout|WsafSnapshot|WsafBucketed|FlowRegulator|RccConfig|BatchEquivalence|VvLayout|RccSketch|RccVectorSizeTest"}
TSAN_FILTER=${TSAN_FILTER:-"MultiCore|SpscQueue|OverloadChaos|OverloadPaced|Watchdog|QueryPlane|AuditConcurrency"}

run_phase() {
  local sanitize=$1 build=$2 filter=$3 repeat=$4
  cmake -B "$build" -S . -DINSTAMEASURE_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$build" -j "$(nproc)" --target \
    test_telemetry test_spsc test_multicore test_flight_recorder \
    test_resilience test_query_engine test_audit test_wsaf_bucket \
    test_wsaf_snapshot test_wsaf_layout_equivalence test_flow_regulator \
    test_rcc test_batch_equivalence test_virtual_vector flow_exporter \
    >/dev/null
  ctest --test-dir "$build" -R "$filter" --output-on-failure -j "$(nproc)" \
    --repeat "until-fail:$repeat"
  echo "sanitized ($sanitize) test run passed"
}

export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}

if [[ -n "${SANITIZE:-}" ]]; then
  run_phase "$SANITIZE" "${BUILD:-build-sanitize}" "$FILTER" "${REPEAT:-1}"
  exit 0
fi

run_phase address,undefined,float-cast-overflow "${BUILD:-build-sanitize}" \
  "$FILTER" 1
run_phase thread "${BUILD_TSAN:-build-tsan}" "$TSAN_FILTER" 3
IM_WSAF_LAYOUT=bucketed run_phase thread "${BUILD_TSAN:-build-tsan}" \
  "$TSAN_FILTER" 3
