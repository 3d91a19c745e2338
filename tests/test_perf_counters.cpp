// Tests for the hardware perf-counter layer (telemetry/perf_counters.h)
// and the BENCH_*.json trajectory schema (analysis/trajectory.h).
//
// The central contract under test is graceful degradation: this suite must
// pass IDENTICALLY on a bare-metal host with a live PMU, in a CI container
// where perf_event_open fails (ENOENT/EACCES/EPERM), and on non-Linux
// platforms where the whole layer is a stub.
// Live-counter expectations are therefore conditional on availability —
// never assumed — while the unavailable path is asserted unconditionally
// wherever the environment forces it.
#include "telemetry/perf_counters.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/stage_latency.h"
#include "analysis/trajectory.h"
#include "core/instameasure.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace instameasure::telemetry {
namespace {

netio::FlowKey key_from(std::uint64_t v) {
  return netio::FlowKey{static_cast<std::uint32_t>(v),
                        static_cast<std::uint32_t>(v >> 32),
                        static_cast<std::uint16_t>(v >> 16),
                        static_cast<std::uint16_t>(v >> 48), 6};
}

TEST(PerfReading, MinusRequiresBothSidesAvailable) {
  PerfReading begin, end;
  begin[PerfCounterId::kCycles] = {100.0, true};
  end[PerfCounterId::kCycles] = {175.0, true};
  end[PerfCounterId::kInstructions] = {9.0, true};  // begin unavailable
  const auto d = end.minus(begin);
  EXPECT_TRUE(d[PerfCounterId::kCycles].available);
  EXPECT_DOUBLE_EQ(d[PerfCounterId::kCycles].value, 75.0);
  EXPECT_FALSE(d[PerfCounterId::kInstructions].available);
  EXPECT_FALSE(d[PerfCounterId::kLlcLoads].available);
}

TEST(PerfReading, AddAccumulatesAvailableOnly) {
  PerfReading acc, delta;
  delta[PerfCounterId::kLlcLoadMisses] = {5.0, true};
  acc.add(delta);
  acc.add(delta);
  EXPECT_TRUE(acc[PerfCounterId::kLlcLoadMisses].available);
  EXPECT_DOUBLE_EQ(acc[PerfCounterId::kLlcLoadMisses].value, 10.0);
  EXPECT_FALSE(acc[PerfCounterId::kCycles].available);
  EXPECT_TRUE(acc.any_available());
  EXPECT_FALSE(PerfReading{}.any_available());
}

// Opening never throws and never crashes, whatever the host allows. When
// the group fails to open, the failure must be explicit: available()
// false, a non-empty errno-derived reason, and a reading in which every
// counter says so.
TEST(PerfCounterGroup, OpenIsNoexceptAndDegradationIsExplicit) {
  PerfCounterGroup group;
  if (group.available()) {
    EXPECT_TRUE(group.error().empty());
    // A live group must deliver a usable reading for at least the leader.
    EXPECT_TRUE(group.read().any_available());
  } else {
    EXPECT_FALSE(group.error().empty()) << "unavailable without a reason";
    const auto reading = group.read();
    for (unsigned i = 0; i < kPerfCounterCount; ++i) {
      EXPECT_FALSE(reading.values[i].available);
    }
  }
}

TEST(PerfCounterGroup, LiveCountersAreMonotoneAndSane) {
  PerfCounterGroup group;
  if (!group.available()) {
    GTEST_SKIP() << "perf unavailable here: " << group.error();
  }
  // Burn some cycles between two readings; the deltas of every available
  // counter must be non-negative, and cycles/instructions positive.
  const auto begin = group.read();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) sink = sink + i * i;
  const auto delta = group.read().minus(begin);
  for (unsigned i = 0; i < kPerfCounterCount; ++i) {
    if (delta.values[i].available) {
      EXPECT_GE(delta.values[i].value, 0.0)
          << to_string(static_cast<PerfCounterId>(i));
    }
  }
  if (delta[PerfCounterId::kCycles].available) {
    EXPECT_GT(delta[PerfCounterId::kCycles].value, 0.0);
  }
  if (delta[PerfCounterId::kInstructions].available) {
    EXPECT_GT(delta[PerfCounterId::kInstructions].value, 0.0);
  }
}

TEST(PerfScope, AccumulatesIntoTarget) {
  PerfCounterGroup group;
  PerfReading acc;
  {
    PerfScope scope{group, &acc};
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  if (group.available()) {
    EXPECT_TRUE(acc.any_available());
  } else {
    EXPECT_FALSE(acc.any_available());
  }
}

// The hot-path gate: with perf unavailable (or stubbed out) begin_chunk
// must be false every time — the engine then skips all stage brackets.
// With perf live it must fire exactly every 2^sample_shift-th chunk.
TEST(PerfStageProfiler, GateMatchesAvailabilityAndCadence) {
  PerfProfilerConfig config;
  config.sample_shift = 2;  // 1/4 cadence
  PerfStageProfiler profiler{config};
  int fired = 0;
  for (int i = 0; i < 16; ++i) {
    if (profiler.begin_chunk()) ++fired;
  }
  if constexpr (!kPerfEnabled) {
    EXPECT_FALSE(profiler.available());
    EXPECT_EQ(fired, 0);
  } else if (profiler.available()) {
    EXPECT_EQ(fired, 4);
  } else {
    EXPECT_EQ(fired, 0);
  }
}

// Driving the real batched engine with a profiler attached must work in
// every environment; what varies is only whether samples accumulate.
TEST(PerfStageProfiler, BatchedEngineIntegration) {
  Registry registry;
  TraceConfig trace_config;
  TraceRecorder recorder{trace_config};
  PerfProfilerConfig perf_config;
  perf_config.sample_shift = 0;  // sample every chunk
  perf_config.registry = &registry;
  perf_config.trace = &recorder;
  PerfStageProfiler profiler{perf_config};

  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 1 << 16;
  config.wsaf.log2_entries = 10;
  config.perf = &profiler;
  core::InstaMeasure engine{config};

  util::SplitMix64 seeds{7};
  std::vector<netio::PacketRecord> batch(256);
  std::uint64_t now = 0;
  for (auto& p : batch) {
    p.key = key_from(seeds() & 0x3f);  // few flows: forces saturations
    p.wire_len = 900;
    p.timestamp_ns = ++now;
  }
  for (int round = 0; round < 8; ++round) engine.process_batch(batch);

  if (!profiler.available()) {
    EXPECT_EQ(profiler.sampled_chunks(), 0u);
    EXPECT_EQ(profiler.sampled_packets(), 0u);
    EXPECT_FALSE(profiler.totals().any_available());
    return;
  }
  // Live PMU: every chunk was sampled, stage totals carry the packets.
  EXPECT_EQ(profiler.sampled_packets(), 8u * 256u);
  const auto& hash = profiler.stage_totals(PerfStage::kHashLayout);
  const auto& reg = profiler.stage_totals(PerfStage::kRegulatorUpdate);
  EXPECT_EQ(hash.items, 8u * 256u);
  EXPECT_EQ(reg.items, 8u * 256u);
  EXPECT_EQ(hash.samples, profiler.sampled_chunks());
  EXPECT_TRUE(profiler.totals().any_available());
  if constexpr (telemetry::kEnabled) {
    // Derived gauges exist once end_chunk ran with live counters.
    const auto snapshot = registry.snapshot();
    EXPECT_NE(snapshot.find("im_perf_ipc", {}), nullptr);
  }
  // Trace events decode back through the stage-attribution path.
  TraceCollector collector{recorder};
  collector.drain();
  const auto report = analysis::attribute_stages(collector.events());
  if (recorder.wants(TraceEventKind::kPerfCounters)) {
    EXPECT_FALSE(report.perf.empty());
  }
}

// Non-Linux stub: the whole API must exist and report stub-ness.
TEST(PerfStageProfiler, CompiledOutStubIsInert) {
  if constexpr (kPerfEnabled) {
    GTEST_SKIP() << "perf_event_open layer built on this platform";
  } else {
    PerfStageProfiler profiler;
    EXPECT_FALSE(profiler.available());
    EXPECT_FALSE(profiler.begin_chunk());
    profiler.stage_mark();
    profiler.stage_commit(PerfStage::kHashLayout, 10);
    profiler.end_chunk(10);
    EXPECT_EQ(profiler.sampled_packets(), 0u);
    EXPECT_FALSE(profiler.totals().any_available());
    PerfCounterGroup group;
    EXPECT_FALSE(group.available());
    EXPECT_EQ(group.error(),
              "perf_event_open unavailable on this platform");
  }
}

// ------------------------------------------------------------ trajectory

analysis::TrajectoryRun fake_run(const std::string& name, bool with_perf) {
  analysis::TrajectoryRun run;
  run.name = name;
  run.mode = name == "scalar" ? "scalar" : "batch";
  run.batch = name == "scalar" ? 0 : 32;
  run.packets = 1 << 20;
  run.elapsed_s = 0.25;
  run.mpps = 4.2;
  if (with_perf) {
    run.perf_available = true;
    run.counters[PerfCounterId::kCycles] = {1e9, true};
    run.counters[PerfCounterId::kInstructions] = {2e9, true};
    run.counters[PerfCounterId::kLlcLoadMisses] = {1e6, true};
    PerfStageTotals totals;
    totals.counters = run.counters;
    totals.items = 1 << 18;
    totals.samples = 1 << 12;
    run.sampled_packets = 1 << 18;
    run.sampled_chunks = 1 << 12;
    run.stages.push_back({"hash_layout", totals});
    run.stages.push_back({"regulator_update", totals});
  } else {
    run.perf_error = "perf_event_open: Permission denied";
  }
  return run;
}

analysis::TrajectoryMeta fake_meta() {
  analysis::TrajectoryMeta meta;
  meta.created_utc = analysis::utc_timestamp_now();
  meta.git_sha = "deadbeef";
  meta.host = analysis::collect_host_info();
  meta.l1_memory_bytes = 512ull << 20;
  meta.wsaf_log2_entries = 20;
  meta.flows = 1ull << 23;
  meta.packets_per_run = 1ull << 24;
  meta.seed = 4;
  meta.sample_shift = 4;
  return meta;
}

TEST(Trajectory, BuiltDocumentValidates) {
  const std::vector<analysis::TrajectoryRun> runs = {
      fake_run("scalar", false), fake_run("batch32", true)};
  const auto json = analysis::build_trajectory_json(fake_meta(), runs);
  std::string err;
  EXPECT_TRUE(analysis::validate_trajectory_json(json, &err)) << err;
  // Degradation is explicit, never zero-filled.
  EXPECT_NE(json.find("\"counters\": \"unavailable\""), std::string::npos);
  EXPECT_NE(json.find("perf_event_open: Permission denied"),
            std::string::npos);
  // The live run carries real numbers and derived rates.
  EXPECT_NE(json.find("\"ipc\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stages\": ["), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \"deadbeef\""), std::string::npos);
}

TEST(Trajectory, HostErrorStringsAreEscaped) {
  auto run = fake_run("scalar", false);
  run.perf_error = "line1\nline2\t\"quoted\"";
  auto meta = fake_meta();
  meta.host.cpu = "Weird \"CPU\"\n model";
  const auto json = analysis::build_trajectory_json(
      meta, std::vector<analysis::TrajectoryRun>{run});
  std::string err;
  EXPECT_TRUE(analysis::validate_trajectory_json(json, &err)) << err;
}

TEST(Trajectory, ValidatorRejectsGarbage) {
  std::string err;
  EXPECT_FALSE(analysis::validate_trajectory_json("", &err));
  EXPECT_FALSE(analysis::validate_trajectory_json("[1,2,3]", &err));
  EXPECT_FALSE(analysis::validate_trajectory_json("{\"a\": }", &err));
  EXPECT_FALSE(analysis::validate_trajectory_json("{\"a\": 1} trailing",
                                                  &err));
  // Well-formed but missing required keys / wrong schema version.
  EXPECT_FALSE(analysis::validate_trajectory_json("{\"schema_version\": 1}",
                                                  &err));
  auto doc = analysis::build_trajectory_json(
      fake_meta(), std::vector<analysis::TrajectoryRun>{});
  const std::string version_field =
      "\"schema_version\": " +
      std::to_string(analysis::kTrajectorySchemaVersion);
  const auto pos = doc.find(version_field);
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, version_field.size(), "\"schema_version\": 999");
  EXPECT_FALSE(analysis::validate_trajectory_json(doc, &err));
}

TEST(Trajectory, ValidatorAcceptsV1Documents) {
  // Pre-accuracy documents (schema v1: no per-run accuracy block) remain
  // valid history — the trajectory's whole point is comparison across
  // commits.
  const std::string v1 =
      "{\"schema_version\": 1, \"benchmark\": \"bench_trajectory\", "
      "\"created_utc\": \"2026-01-01T00:00:00Z\", \"git_sha\": \"abc\", "
      "\"host\": {\"hostname\": \"h\"}, \"config\": {}, \"runs\": ["
      "{\"name\": \"scalar\", \"mpps\": 1.0}]}";
  std::string err;
  EXPECT_TRUE(analysis::validate_trajectory_json(v1, &err)) << err;
}

TEST(Trajectory, CorruptAccuracyBlockIsBadInput) {
  auto run = fake_run("batch32", true);
  run.accuracy.enabled = true;
  run.accuracy.sample_shift = 8;
  run.accuracy.comparisons = 10;
  run.accuracy.are = 0.01;
  run.accuracy.recall = 1.0;
  run.accuracy.precision = 1.0;
  const auto json = analysis::build_trajectory_json(
      fake_meta(), std::vector<analysis::TrajectoryRun>{run});
  std::string err;
  ASSERT_TRUE(analysis::validate_trajectory_json(json, &err)) << err;
  ASSERT_NE(json.find("\"accuracy\": {\"enabled\": true"),
            std::string::npos);

  // A well-formed document whose accuracy member lost a required key must
  // fail validation (BadInput), not slide through as "extra data".
  auto missing_key = json;
  const auto are_pos = missing_key.find("\"are\":");
  ASSERT_NE(are_pos, std::string::npos);
  missing_key.replace(are_pos, 6, "\"axe\":");
  EXPECT_FALSE(analysis::validate_trajectory_json(missing_key, &err));
  EXPECT_NE(err.find("accuracy"), std::string::npos) << err;

  // Accuracy replaced wholesale by a scalar: still well-formed JSON, still
  // rejected.
  auto scalar = json;
  const auto start = scalar.find("\"accuracy\": {");
  ASSERT_NE(start, std::string::npos);
  const auto end = scalar.find("}}", start);  // causes + accuracy close
  ASSERT_NE(end, std::string::npos);
  scalar.replace(start, end + 2 - start, "\"accuracy\": 42");
  EXPECT_FALSE(analysis::validate_trajectory_json(scalar, &err));
  EXPECT_NE(err.find("accuracy"), std::string::npos) << err;
}

TEST(Trajectory, EmptyRunMatrixStillValidates) {
  const auto json = analysis::build_trajectory_json(
      fake_meta(), std::vector<analysis::TrajectoryRun>{});
  std::string err;
  EXPECT_TRUE(analysis::validate_trajectory_json(json, &err)) << err;
}

}  // namespace
}  // namespace instameasure::telemetry
