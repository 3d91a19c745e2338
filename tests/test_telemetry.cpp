#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/instameasure.h"
#include "delegation/pipeline.h"
#include "memmodel/memory_model.h"
#include "runtime/multicore.h"
#include "telemetry/export.h"
#include "telemetry/reporter.h"
#include "telemetry/trace.h"
#include "trace/generator.h"
#include "util/format.h"
#include "util/rng.h"

namespace instameasure::telemetry {
namespace {

TEST(Counter, StandaloneHandleCounts) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, PerThreadHandlesAggregateInRegistry) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Each writer takes its OWN cell — the single-writer contract that
      // makes inc() a plain add. The registry sums them at read time.
      auto handle = registry.counter("test_ops_total", "ops");
      for (std::uint64_t i = 0; i < kPerThread; ++i) handle.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.value("test_ops_total"), kThreads * kPerThread);
}

TEST(Counter, LabelFilterSelectsSeries) {
  Registry registry;
  auto a = registry.counter("test_pkts_total", "", {{"worker", "0"}});
  auto b = registry.counter("test_pkts_total", "", {{"worker", "1"}});
  a.inc(5);
  b.inc(7);
  EXPECT_EQ(registry.value("test_pkts_total"), 12.0);
  EXPECT_EQ(registry.value("test_pkts_total", {{"worker", "0"}}), 5.0);
  EXPECT_EQ(registry.value("test_pkts_total", {{"worker", "1"}}), 7.0);
  EXPECT_EQ(registry.value("test_pkts_total", {{"worker", "9"}}), 0.0);
}

TEST(Gauge, SameSeriesSharesOneCell) {
  Registry registry;
  auto a = registry.gauge("test_ratio");
  auto b = registry.gauge("test_ratio");
  a.set(0.25);
  b.set(0.5);  // same cell: last write wins, never a sum
  EXPECT_DOUBLE_EQ(registry.value("test_ratio"), 0.5);
  EXPECT_DOUBLE_EQ(a.value(), 0.5);
}

TEST(HistogramMetric, PercentilesTrackExactQuantiles) {
  // Log-normal-ish latency distribution spanning several octaves; the
  // log-scale buckets (8 per octave) bound relative error at 12.5%, and
  // the midpoint estimate halves that.
  util::Xoshiro256ss rng{7};
  Histogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 50'000; ++i) {
    const double u = rng.next_double();
    const auto v =
        static_cast<std::uint64_t>(std::exp(4.0 + 6.0 * u));  // ~55..1.2M
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.max_value(), values.back());
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto exact = static_cast<double>(
        values[static_cast<std::size_t>(q * (values.size() - 1))]);
    EXPECT_NEAR(h.quantile(q) / exact, 1.0, 0.13)
        << "q=" << q << " exact=" << exact << " est=" << h.quantile(q);
  }
}

TEST(HistogramMetric, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.record(v);
  // Values below one sub-bucket block land in unit-wide buckets.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);
  EXPECT_EQ(h.max_value(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 28.0);
}

TEST(Export, PrometheusTextFormat) {
  Registry registry;
  auto c = registry.counter("test_requests_total", "Requests served",
                            {{"code", "200"}});
  c.inc(3);
  auto g = registry.gauge("test_temp", "Temperature");
  g.set(1.5);
  auto h = registry.histogram("test_latency_ns", "Latency");
  h.record(10);
  h.record(1000);

  const auto text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# HELP test_requests_total Requests served\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total{code=\"200\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_temp gauge\n"), std::string::npos);
  EXPECT_NE(text.find("test_temp 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_latency_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_ns_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("test_latency_ns_sum 1010\n"), std::string::npos);
}

TEST(Export, PrometheusBucketsAreCumulative) {
  Registry registry;
  auto h = registry.histogram("test_h");
  for (std::uint64_t v : {1, 1, 100, 10'000}) h.record(v);
  const auto text = to_prometheus(registry.snapshot());
  // Parse every bucket count; the sequence must be non-decreasing and end
  // at the total count.
  std::vector<double> counts;
  std::size_t pos = 0;
  while ((pos = text.find("test_h_bucket{le=", pos)) != std::string::npos) {
    const auto space = text.find("} ", pos);
    const auto nl = text.find('\n', space);
    counts.push_back(std::stod(text.substr(space + 2, nl - space - 2)));
    pos = nl;
  }
  ASSERT_GE(counts.size(), 2u);
  EXPECT_TRUE(std::is_sorted(counts.begin(), counts.end()));
  EXPECT_DOUBLE_EQ(counts.back(), 4.0);
}

TEST(Export, JsonCarriesValuesAndPercentiles) {
  Registry registry;
  auto c = registry.counter("test_total", "", {{"k", "v"}});
  c.inc(9);
  auto h = registry.histogram("test_ns");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<std::uint64_t>(i));
  const auto json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"name\":\"test_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"max\":100"), std::string::npos);
}

// escaped() must neutralize every JSON-breaking byte a label can carry:
// quotes, backslashes, and all control chars (newlines/tabs as their
// two-char escapes, the rest as \uXXXX). A label value is attacker-ish
// input — flow keys and CLI strings end up in labels — so the exporter
// output must stay machine-parseable for any byte sequence.
TEST(Export, EscapesControlCharactersInLabels) {
  const std::string hostile = "a\"b\\c\nd\te\rf\x01g";
  EXPECT_EQ(util::json_escape(hostile),
            "a\\\"b\\\\c\\nd\\te\\rf\\u0001g");
  Registry registry;
  auto c = registry.counter("test_hostile_total", "", {{"k", hostile}});
  c.inc(1);
  const auto json = to_json(registry.snapshot());
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\rf\\u0001g"),
            std::string::npos);
  const auto prom = to_prometheus(registry.snapshot());
  for (const auto& text : {json, prom}) {
    for (const char ch : text) {
      // No raw control byte may survive into either exporter's output
      // (structural newlines are the format's own, not the label's).
      if (ch == '\n') continue;
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
    }
  }
}

TEST(Export, SnapshotFindFiltersByLabel) {
  Registry registry;
  auto a = registry.counter("test_x", "", {{"w", "0"}});
  auto b = registry.counter("test_x", "", {{"w", "1"}});
  a.inc(1);
  b.inc(2);
  const auto snapshot = registry.snapshot();
  const auto* s = snapshot.find("test_x", {{"w", "1"}});
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 2.0);
  EXPECT_EQ(snapshot.find("test_x", {{"w", "5"}}), nullptr);
}

TEST(Export, FormatsValuesBeyondInt64Range) {
  // HistogramCell covers the whole uint64 range, so exported numbers can
  // exceed int64; they print as doubles, never through an int64 cast.
  Registry registry;
  auto h = registry.histogram("test_huge_ns");
  h.record(std::numeric_limits<std::uint64_t>::max());
  const auto snapshot = registry.snapshot();
  const std::string kBound = "1.8446744073709552e+19";

  const auto json = to_json(snapshot);
  EXPECT_NE(json.find("\"max\":" + kBound), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[[" + kBound + ",1]]"), std::string::npos)
      << json;
  const auto text = to_prometheus(snapshot);
  EXPECT_NE(text.find("test_huge_ns_bucket{le=\"" + kBound + "\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_huge_ns_sum " + kBound + "\n"), std::string::npos)
      << text;
}

TEST(Reporter, PeriodicAndFinalSnapshots) {
  Registry registry;
  auto c = registry.counter("test_ticks_total");
  c.inc(3);
  std::ostringstream out;
  ReporterConfig config;
  config.interval = std::chrono::milliseconds{20};
  config.stream = &out;
  SnapshotReporter reporter{registry, config};
  reporter.start();
  std::this_thread::sleep_for(std::chrono::milliseconds{70});
  reporter.stop();
  EXPECT_GE(reporter.snapshots_written(), 2u);  // >=1 tick + final
  EXPECT_NE(out.str().find("test_ticks_total"), std::string::npos);
}

TEST(Reporter, StopReturnsPromptlyDespiteLongInterval) {
  // Shutdown latency contract: stop() wakes the tick thread via the
  // condition variable instead of waiting out the interval, so stopping a
  // 10-second reporter is instant. (A sleep_for-based loop would pin this
  // test at ~10 s.)
  Registry registry;
  std::ostringstream out;
  ReporterConfig config;
  config.interval = std::chrono::seconds{10};
  config.stream = &out;
  SnapshotReporter reporter{registry, config};
  reporter.start();
  std::this_thread::sleep_for(std::chrono::milliseconds{20});

  const auto t0 = std::chrono::steady_clock::now();
  reporter.stop();
  const auto stop_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, 100.0) << "stop() must not wait out the 10 s interval";
  EXPECT_GE(reporter.snapshots_written(), 1u) << "final snapshot on stop";

  // Concurrent stop() calls (e.g. explicit stop racing the destructor's)
  // must not double-join the tick thread.
  reporter.start();
  std::thread racer{[&] { reporter.stop(); }};
  reporter.stop();
  racer.join();
}

TEST(Reporter, TextfilePublishIsAtomicUnderConcurrentReads) {
  // Regression for the in-place ios::trunc textfile write: a reader
  // opening the path mid-write saw a truncated (often empty) file. The
  // reporter now writes <path>.tmp and std::rename()s it over the target,
  // so every open() observes a complete snapshot. A reader thread hammers
  // the path while the reporter ticks at 1 ms; any short read fails the
  // test. (Pre-fix this catches a torn read within a few hundred opens.)
  namespace fs = std::filesystem;
  const auto path =
      fs::temp_directory_path() / "im_test_reporter_atomic.prom";
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path.string() + ".tmp", ec);

  Registry registry;
  auto c = registry.counter("test_atomic_ticks_total");
  // A fat payload widens the write window: many series, long help text.
  std::vector<Gauge> gauges;
  for (int i = 0; i < 64; ++i) {
    gauges.push_back(registry.gauge(
        "test_atomic_padding_" + std::to_string(i),
        "padding series so the snapshot spans several kilobytes",
        {{"idx", std::to_string(i)}}));
    gauges.back().set(i);
  }

  ReporterConfig config;
  config.interval = std::chrono::milliseconds{1};
  config.path = path.string();
  SnapshotReporter reporter{registry, config};

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::size_t full_size = 0;
  {
    // One synchronous write tells us the complete-snapshot size.
    reporter.write_now();
    std::ifstream in{path, std::ios::binary | std::ios::ate};
    if (in) full_size = static_cast<std::size_t>(in.tellg());
  }
  std::thread reader{[&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::ifstream in{path, std::ios::binary | std::ios::ate};
      if (!in) continue;  // rename window on some filesystems; not a tear
      const auto size = static_cast<std::size_t>(in.tellg());
      ++reads;
      // Counter value growth only ever lengthens the file; any read
      // shorter than the first complete snapshot is a torn write.
      if (size < full_size) ++torn;
    }
  }};

  reporter.start();
  for (int i = 0; i < 200; ++i) {
    c.inc();
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }
  reporter.stop();
  done = true;
  reader.join();

  EXPECT_GE(reporter.snapshots_written(), 2u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(torn.load(), 0u)
      << "reader observed a truncated snapshot (non-atomic publish)";
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"))
      << "tmp file must not survive a successful publish";
  fs::remove(path, ec);
  fs::remove(path.string() + ".tmp", ec);
}

TEST(Integration, EngineMirrorsMatchAuthoritativeCounts) {
  Registry registry;
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  config.registry = &registry;
  core::InstaMeasure engine{config};

  const netio::FlowKey key{0x0a000001, 0x0a000002, 1234, 443, 6};
  constexpr int kPackets = 150'000;
  for (int i = 0; i < kPackets; ++i) {
    engine.process(
        netio::PacketRecord{static_cast<std::uint64_t>(i) * 1000, key, 500});
  }

  // The regulator's accessors read its exported counters.
  EXPECT_EQ(registry.value("im_regulator_packets_total"),
            static_cast<double>(engine.regulator().packets()));
  EXPECT_EQ(registry.value("im_regulator_l2_saturations_total"),
            static_cast<double>(engine.regulator().l2_saturations()));
  EXPECT_EQ(registry.value("im_wsaf_inserts_total"),
            static_cast<double>(engine.wsaf().stats().inserts));
  EXPECT_EQ(registry.value("im_wsaf_occupancy"),
            static_cast<double>(engine.wsaf().occupancy()));
  // Live ips/pps gauge equals the regulator's regulation rate (updated
  // on the event path; an elephant of this size saturates many times).
  EXPECT_GT(engine.regulator().l2_saturations(), 0u);
  EXPECT_NEAR(registry.value("im_engine_ips_pps_ratio"),
              engine.regulator().regulation_rate(),
              1e-3);  // gauge lags by the packets since the last event
  // Sampled per-packet timing populated the process histogram.
  const auto snapshot = registry.snapshot();
  const auto* process = snapshot.find("im_engine_process_ns");
  ASSERT_NE(process, nullptr);
  ASSERT_TRUE(process->histogram.has_value());
  EXPECT_GE(process->histogram->count, kPackets / 256 / 2);
  EXPECT_EQ(engine.regulator().packets(), static_cast<std::uint64_t>(kPackets));

  // reset() restarts the accessors (a caller that resets between
  // intervals reads per-interval counts) while the exported series stay
  // monotone.
  const char* const kSeries[] = {"im_regulator_packets_total",
                                 "im_regulator_l1_saturations_total",
                                 "im_regulator_l2_saturations_total"};
  std::vector<double> before;
  for (const char* name : kSeries) before.push_back(registry.value(name));
  EXPECT_GT(before[1], 0.0);
  engine.reset();
  EXPECT_EQ(engine.regulator().packets(), 0u);
  EXPECT_EQ(engine.regulator().l1_saturations(), 0u);
  EXPECT_EQ(engine.regulator().l2_saturations(), 0u);
  EXPECT_EQ(engine.regulator().regulation_rate(), 0.0);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(registry.value(kSeries[i]), before[i]) << kSeries[i];
  }
  constexpr int kAfter = 1'000;
  for (int i = 0; i < kAfter; ++i) {
    engine.process(
        netio::PacketRecord{static_cast<std::uint64_t>(i) * 1000, key, 500});
  }
  EXPECT_EQ(engine.regulator().packets(), static_cast<std::uint64_t>(kAfter));
  EXPECT_EQ(registry.value("im_regulator_packets_total"), before[0] + kAfter);
}

TEST(Integration, DetectionLatencyHistogramPopulated) {
  Registry registry;
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  config.heavy_hitter.packet_threshold = 200;
  config.registry = &registry;
  core::InstaMeasure engine{config};

  const netio::FlowKey key{0xc0a80001, 0xc0a80002, 4321, 80, 17};
  for (int i = 0; i < 100'000; ++i) {
    engine.process(
        netio::PacketRecord{static_cast<std::uint64_t>(i) * 1000, key, 500});
  }
  ASSERT_FALSE(engine.detections().empty());
  EXPECT_EQ(registry.value("im_engine_detections_total"),
            static_cast<double>(engine.detections().size()));
  const auto snapshot = registry.snapshot();
  const auto* lat = snapshot.find("im_engine_detection_latency_ns");
  ASSERT_NE(lat, nullptr);
  ASSERT_TRUE(lat->histogram.has_value());
  EXPECT_EQ(lat->histogram->count, engine.detections().size());
  EXPECT_GT(lat->histogram->quantile(0.5), 0.0);
}

TEST(Integration, DetectionLatencyClampsOutOfOrderArrival) {
  // A packet stamped before its flow's WSAF first-seen time (a backward
  // capture timestamp) can raise the alarm. Its latency reads 0, never a
  // wrapped ~1.8e19 ns.
  Registry registry;
  TraceConfig trace_config;
  trace_config.kind_mask = kind_bit(TraceEventKind::kDetection);
  TraceRecorder recorder{trace_config};
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  config.heavy_hitter.packet_threshold = 2'000;
  config.registry = &registry;
  config.trace = &recorder;
  core::InstaMeasure engine{config};

  const netio::FlowKey key{0x0b000001, 0x0b000002, 5555, 53, 17};
  constexpr std::uint64_t kFirstSeenNs = 1'000'000'000;
  constexpr std::uint64_t kEarlierNs = 500'000'000;
  while (!engine.query(key).in_wsaf) {
    engine.process(netio::PacketRecord{kFirstSeenNs, key, 100});
  }
  ASSERT_TRUE(engine.detections().empty());
  for (int i = 0; i < 10'000 && engine.detections().empty(); ++i) {
    engine.process(netio::PacketRecord{kEarlierNs, key, 100});
  }
  ASSERT_EQ(engine.detections().size(), 1u);

  const auto snapshot = registry.snapshot();
  const auto* lat = snapshot.find("im_engine_detection_latency_ns");
  ASSERT_NE(lat, nullptr);
  ASSERT_TRUE(lat->histogram.has_value());
  EXPECT_EQ(lat->histogram->count, 1u);
  EXPECT_EQ(lat->histogram->max, 0u);

  TraceCollector collector{recorder};
  collector.drain();
  ASSERT_EQ(collector.events().size(), 1u);
  EXPECT_EQ(collector.events().front().kind, TraceEventKind::kDetection);
  EXPECT_EQ(collector.events().front().payload, 0.0);
}

TEST(Integration, MultiCoreStatsAgreeWithRegistry) {
  const auto trace = trace::generate([] {
    trace::TraceConfig config;
    config.duration_s = 0.2;
    config.mice = {2'000, 1.1, 30};
    config.seed = 99;
    return config;
  }());

  runtime::MultiCoreConfig config;
  config.workers = 2;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 14;
  runtime::MultiCoreEngine engine{config};
  const auto stats = engine.run(trace);

  // RunStats reads the run's own manager/worker counters, which the
  // registry mirrors live: the totals must balance, and the two must
  // agree.
  std::uint64_t total = 0;
  for (const auto p : stats.per_worker_packets) total += p;
  EXPECT_EQ(total, trace.packets.size());

  auto& registry = engine.registry();
  EXPECT_EQ(registry.value("im_runtime_worker_packets_total"),
            static_cast<double>(trace.packets.size()));
  for (unsigned w = 0; w < engine.workers(); ++w) {
    const Labels filter{{"worker", std::to_string(w)}};
    EXPECT_EQ(registry.value("im_runtime_worker_packets_total", filter),
              static_cast<double>(stats.per_worker_packets[w]));
    // Every worker's engine exported under its own label too.
    EXPECT_EQ(registry.value("im_regulator_packets_total", filter),
              static_cast<double>(stats.per_worker_packets[w]));
  }
  EXPECT_EQ(registry.value("im_runtime_runs_total"), 1.0);
  EXPECT_NEAR(registry.value("im_runtime_mpps"), stats.mpps, 1e-9);
}

TEST(Integration, DelegationPipelineExportsChannelTraffic) {
  Registry registry;
  const auto trace = trace::generate([] {
    trace::TraceConfig config;
    config.duration_s = 0.5;
    config.mice = {500, 1.1, 40};
    config.seed = 5;
    return config;
  }());

  delegation::PipelineConfig config;
  config.epoch_ms = 50.0;
  config.packet_threshold = 10;
  config.registry = &registry;
  std::vector<netio::FlowKey> watched{trace.packets.front().key};
  const auto run = delegation::run_pipeline(trace.packets, config, watched);

  EXPECT_GT(run.epochs, 0u);
  EXPECT_EQ(registry.value("im_delegation_epochs_total"),
            static_cast<double>(run.epochs));
  EXPECT_EQ(registry.value("im_delegation_sketches_received_total"),
            static_cast<double>(run.sketches_delivered));
  // Every flush ships the whole sketch.
  const sketch::CountMinSketch probe{config.sketch};
  EXPECT_EQ(registry.value("im_delegation_channel_bytes_total"),
            static_cast<double>(run.epochs * probe.memory_bytes()));
  const auto snapshot = registry.snapshot();
  const auto* decode = snapshot.find("im_delegation_collector_decode_ns");
  ASSERT_NE(decode, nullptr);
  ASSERT_TRUE(decode->histogram.has_value());
  EXPECT_EQ(decode->histogram->count, run.sketches_delivered);
}

TEST(Integration, MemoryModelPublishesFeasibilityEnvelope) {
  Registry registry;
  memmodel::WsafBudget budget;
  memmodel::publish(budget, registry, 10e6);
  EXPECT_DOUBLE_EQ(registry.value("im_memmodel_max_ips", {{"memory", "DRAM"}}),
                   budget.max_ips(memmodel::MemoryKind::kDram));
  EXPECT_DOUBLE_EQ(
      registry.value("im_memmodel_max_regulation_rate", {{"memory", "SRAM"}}),
      budget.max_regulation_rate(memmodel::MemoryKind::kSram, 10e6));
}

TEST(Integration, BatchPathKeepsTelemetryLockstep) {
  // Regression for the batched hot path: reusing precomputed hashes through
  // the regulator and WSAF must not double-count anything. Every counter,
  // the probe-length histogram (count AND sum — the batch path walks the
  // exact same probe sequences), the sampled process_ns and
  // event_accumulate_ns counts (lockstep sampling), and the logical memory
  // accounting must match the scalar engine exactly; only timing-valued
  // sums may differ. Checked at every sample shift (64 = never) and at
  // batch sizes below, at and across the 64-packet chunk, so the chunk's
  // closed-form sample count and its sampled event timing are pinned.
  trace::TraceConfig tconfig;
  tconfig.duration_s = 1.0;
  tconfig.tiers = {{3, 15'000, 30'000}, {25, 1'000, 4'000}};
  tconfig.mice = {8'000, 1.1, 40};
  tconfig.seed = 99;
  const auto trace = trace::generate(tconfig);
  const std::span<const netio::PacketRecord> all{trace.packets};

  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  config.heavy_hitter.packet_threshold = 5'000;

  const auto histogram_of = [](const Snapshot& snap, const char* name) {
    const auto* sample = snap.find(name);
    EXPECT_NE(sample, nullptr) << name;
    EXPECT_TRUE(sample == nullptr || sample->histogram.has_value()) << name;
    return sample != nullptr && sample->histogram.has_value()
               ? &*sample->histogram
               : nullptr;
  };

  for (const unsigned shift : {0u, 3u, 8u, 64u}) {
    config.telemetry_sample_shift = shift;
    Registry scalar_reg;
    auto scalar_config = config;
    scalar_config.registry = &scalar_reg;
    core::InstaMeasure scalar{scalar_config};
    for (const auto& rec : trace.packets) scalar.process(rec);
    const auto ss = scalar_reg.snapshot();

    // The scalar path times packets 0, 2^shift, 2*2^shift, ... and, at
    // shift 0, every event.
    const auto* process_s = histogram_of(ss, "im_engine_process_ns");
    const auto* events_s = histogram_of(ss, "im_engine_event_accumulate_ns");
    ASSERT_NE(process_s, nullptr);
    ASSERT_NE(events_s, nullptr);
    const std::uint64_t packets = all.size();
    EXPECT_EQ(process_s->count,
              shift >= 64 ? 0 : (packets + (1ull << shift) - 1) >> shift);
    if (shift == 0) {
      EXPECT_EQ(static_cast<double>(events_s->count),
                scalar_reg.value("im_regulator_l2_saturations_total"));
    }
    if (shift >= 64) {
      EXPECT_EQ(events_s->count, 0u);
    }

    for (const std::size_t batch_size : {1u, 48u, 64u, 100u}) {
      SCOPED_TRACE("shift " + std::to_string(shift) + ", batch " +
                   std::to_string(batch_size));
      Registry batch_reg;
      auto batch_config = config;
      batch_config.registry = &batch_reg;
      core::InstaMeasure batch{batch_config};
      for (std::size_t off = 0; off < all.size(); off += batch_size) {
        batch.process_batch(
            all.subspan(off, std::min(batch_size, all.size() - off)));
      }

      EXPECT_EQ(scalar.wsaf().logical_memory_bytes(),
                batch.wsaf().logical_memory_bytes());
      EXPECT_EQ(core::WsafTable::logical_entry_bytes(), 33u);
      for (const char* name :
           {"im_regulator_packets_total", "im_regulator_l1_saturations_total",
            "im_regulator_l2_saturations_total", "im_wsaf_accumulates_total",
            "im_wsaf_inserts_total", "im_wsaf_updates_total",
            "im_wsaf_evictions_total", "im_wsaf_rejected_total",
            "im_wsaf_gc_reclaims_total", "im_wsaf_occupancy",
            "im_engine_detections_total", "im_engine_reported_flows"}) {
        EXPECT_DOUBLE_EQ(scalar_reg.value(name), batch_reg.value(name))
            << name;
      }

      const auto bs = batch_reg.snapshot();
      const auto* probe_s = histogram_of(ss, "im_wsaf_probe_length");
      const auto* probe_b = histogram_of(bs, "im_wsaf_probe_length");
      ASSERT_NE(probe_s, nullptr);
      ASSERT_NE(probe_b, nullptr);
      EXPECT_GT(probe_s->count, 0u);
      EXPECT_EQ(probe_s->count, probe_b->count);
      EXPECT_DOUBLE_EQ(probe_s->sum, probe_b->sum);

      // Timing histograms: sample COUNTS are part of the lockstep
      // contract; the recorded values are wall-clock and legitimately
      // differ.
      for (const char* name :
           {"im_engine_process_ns", "im_engine_event_accumulate_ns",
            "im_engine_detection_latency_ns"}) {
        const auto* hist_s = histogram_of(ss, name);
        const auto* hist_b = histogram_of(bs, name);
        ASSERT_NE(hist_s, nullptr) << name;
        ASSERT_NE(hist_b, nullptr) << name;
        EXPECT_EQ(hist_s->count, hist_b->count) << name;
      }
      // Detection latency is trace-clock, not wall-clock: identical sums.
      const auto* lat_s = histogram_of(ss, "im_engine_detection_latency_ns");
      const auto* lat_b = histogram_of(bs, "im_engine_detection_latency_ns");
      EXPECT_GT(lat_s->count, 0u);
      EXPECT_DOUBLE_EQ(lat_s->sum, lat_b->sum);
    }
  }
}

TEST(Integration, ClearDetectionsBoundsReportedSets) {
  // Satellite fix: reported_pkt_/reported_byte_ must not grow without
  // bound — clear_detections() empties them and rewinds the gauge.
  Registry registry;
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  config.heavy_hitter.packet_threshold = 200;
  config.registry = &registry;
  core::InstaMeasure engine{config};
  const netio::FlowKey key{0xde000001, 0xde000002, 1, 2, 6};
  for (int i = 0; i < 50'000; ++i) {
    engine.process(
        netio::PacketRecord{static_cast<std::uint64_t>(i) * 1000, key, 500});
  }
  ASSERT_GT(engine.reported_flows(), 0u);
  engine.clear_detections();
  EXPECT_EQ(engine.reported_flows(), 0u);
  EXPECT_TRUE(engine.detections().empty());
  EXPECT_EQ(registry.value("im_engine_reported_flows"), 0.0);
  // Counters are monotone across the clear (Prometheus semantics).
  EXPECT_GT(registry.value("im_engine_detections_total"), 0.0);
}

}  // namespace
}  // namespace instameasure::telemetry
