#include "runtime/multicore.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ground_truth.h"
#include "resilience/faultpoint.h"
#include "trace/generator.h"
#include "wsaf_layout_env.h"

namespace instameasure::runtime {
namespace {

MultiCoreConfig small_config(unsigned workers) {
  MultiCoreConfig config;
  config.workers = workers;
  config.queue_capacity = 1 << 12;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 14;
  config.engine.wsaf.layout = testenv::wsaf_layout_from_env();
  return config;
}

trace::Trace test_trace() {
  trace::TraceConfig config;
  config.duration_s = 1.0;
  config.tiers = {{4, 20'000, 40'000}, {40, 1'000, 4'000}};
  config.mice = {20'000, 1.0, 30};
  config.seed = 77;
  return trace::generate(config);
}

TEST(MultiCore, AllPacketsProcessed) {
  const auto trace = test_trace();
  MultiCoreEngine engine{small_config(4)};
  const auto stats = engine.run(trace);
  EXPECT_EQ(stats.packets, trace.packets.size());
  std::uint64_t sum = 0;
  for (const auto n : stats.per_worker_packets) sum += n;
  EXPECT_EQ(sum, trace.packets.size());
  EXPECT_GT(stats.mpps, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(MultiCore, DispatchIsDeterministicPerFlow) {
  MultiCoreEngine engine{small_config(4)};
  const netio::FlowKey key{0x12345678, 0x9abcdef0, 80, 443, 6};
  const auto w = engine.worker_of(key);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(engine.worker_of(key), w);
  }
  EXPECT_EQ(w, static_cast<unsigned>(std::popcount(key.src_ip)) % 4);
}

TEST(MultiCore, QueriesRouteToOwningShard) {
  const auto trace = test_trace();
  const analysis::GroundTruth truth{trace};
  MultiCoreEngine engine{small_config(4)};
  (void)engine.run(trace);

  // Every large flow must be visible through the facade with sane error.
  std::size_t checked = 0;
  for (const auto& [key, t] : truth.flows()) {
    if (t.packets < 20'000) continue;
    const auto est = engine.query(key);
    EXPECT_NEAR(est.packets / static_cast<double>(t.packets), 1.0, 0.15)
        << key.to_string();
    ++checked;
  }
  EXPECT_GE(checked, 4u);
}

TEST(MultiCore, MergedTopKFindsGlobalElephants) {
  const auto trace = test_trace();
  const analysis::GroundTruth truth{trace};
  MultiCoreEngine engine{small_config(3)};
  (void)engine.run(trace);

  const auto truth_top = truth.top_k_keys(4, false);
  const auto est_top = engine.top_k_packets(4);
  ASSERT_EQ(est_top.size(), 4u);
  // The four tier-1 elephants dominate; merged top-4 must contain them all.
  std::set<std::string> truth_set, est_set;
  for (const auto& k : truth_top) truth_set.insert(k.to_string());
  for (const auto& item : est_top) est_set.insert(item.key.to_string());
  EXPECT_EQ(truth_set, est_set);
}

TEST(MultiCore, SingleWorkerDegenerateCase) {
  const auto trace = test_trace();
  MultiCoreEngine engine{small_config(1)};
  const auto stats = engine.run(trace);
  EXPECT_EQ(stats.per_worker_packets.size(), 1u);
  EXPECT_EQ(stats.per_worker_packets[0], trace.packets.size());
}

TEST(MultiCore, WorkerCountRespected) {
  MultiCoreEngine engine{small_config(7)};
  EXPECT_EQ(engine.workers(), 7u);
  // popcount of a 32-bit value is 0..32 -> workers 0..6 reachable.
  std::set<unsigned> seen;
  for (std::uint32_t ip = 0; ip < 64; ++ip) {
    seen.insert(engine.worker_of(netio::FlowKey{ip, 0, 0, 0, 6}));
  }
  EXPECT_GE(seen.size(), 4u);
}

TEST(MultiCore, PacedReplayApproximatesTargetRate) {
  // Paced mode (deployment emulation, Fig 12): wall-clock duration must
  // track packets / pace_pps, and a worker that is far faster than the
  // arrival rate must never stall the producer.
  trace::Trace slice;
  slice.name = "paced";
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    netio::PacketRecord rec;
    rec.timestamp_ns = i;
    rec.key = netio::FlowKey{i * 2654435761u, ~i, 80, 443, 6};
    rec.wire_len = 100;
    slice.packets.push_back(rec);
  }
  MultiCoreEngine engine{small_config(1)};
  const double pace = 100'000;  // 100 kpps -> ~0.5s
  netio::ReplaySource::Config paced;
  paced.pace_pps = pace;
  netio::ReplaySource source{
      std::span<const netio::PacketRecord>{slice.packets}, paced};
  const auto stats = engine.run_source(source);
  EXPECT_NEAR(stats.wall_seconds, 0.5, 0.15);
  EXPECT_EQ(stats.producer_stalls, 0u);
  EXPECT_EQ(stats.per_worker_packets[0], slice.packets.size());
}

// Determinism contract: dispatch is a pure function of the flow key and
// each worker drains its SPSC queue in FIFO order, so the per-shard WSAF
// state must be bit-identical across runs regardless of thread scheduling
// or how the queue happened to partition packets into bursts — and equal
// to a serial reference: an engine built from the worker's own config and
// fed that worker's packets through process() in trace order. Run
// repeatedly (and under TSan/ASan in CI) so a scheduling-dependent
// divergence or a race in the burst pipeline cannot hide behind a lucky
// interleaving.
TEST(MultiCore, DeterministicPerShardWsafAcrossRunsAndPaths) {
  const auto trace = test_trace();
  constexpr unsigned kWorkers = 4;
  const auto saved_wsaf = [](const core::InstaMeasure& engine,
                             const std::string& name) {
    const auto path = testing::TempDir() + "mc-det-" + name + ".bin";
    engine.wsaf().save(path);
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  std::vector<std::string> baseline;
  for (int run = 0; run < 3; ++run) {
    MultiCoreEngine engine{small_config(kWorkers)};
    (void)engine.run(trace);
    for (unsigned w = 0; w < kWorkers; ++w) {
      const auto shard = saved_wsaf(
          engine.engine(w), std::to_string(run) + "-" + std::to_string(w));
      if (run > 0) {
        EXPECT_EQ(baseline[w], shard) << "run " << run << " shard " << w;
        continue;
      }
      core::InstaMeasure serial{engine.engine(w).config()};
      for (const auto& rec : trace.packets) {
        if (engine.worker_of(rec.key) == w) serial.process(rec);
      }
      EXPECT_EQ(saved_wsaf(serial, "serial-" + std::to_string(w)), shard)
          << "serial-reference shard " << w;
      baseline.push_back(shard);
    }
  }
}

// A busy poll is one non-empty pop, however many packets it carries. The
// only worker wedges on its first burst while the producer fills a queue
// that holds the whole trace, so every later pop takes a full burst of 64:
// at most 1 + ceil(P/64) busy polls, where counting packets would give P.
TEST(MultiCore, BusyPollsCountBurstsNotPackets) {
  trace::Trace slice;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    netio::PacketRecord rec;
    rec.timestamp_ns = i;
    rec.key = netio::FlowKey{i * 2654435761u, ~i, 80, 443, 6};
    rec.wire_len = 100;
    slice.packets.push_back(rec);
  }
  resilience::ScopedFaults faults{
      {"runtime.worker_stall",
       {.probability = 1.0, .max_fires = 1, .param = 200e6}}};
  auto config = small_config(1);
  config.queue_capacity = std::bit_ceil(slice.packets.size() + 1);
  MultiCoreEngine engine{config};
  const auto stats = engine.run(slice);
  ASSERT_EQ(stats.processed, slice.packets.size());
  const auto& registry = engine.registry();
  const double busy = registry.value("im_runtime_worker_busy_polls_total");
  const double idle = registry.value("im_runtime_worker_idle_polls_total");
  const double packets = static_cast<double>(slice.packets.size());
  EXPECT_GE(busy, 1.0);
  EXPECT_LE(busy, 1.0 + std::ceil(packets / 64.0));
  EXPECT_DOUBLE_EQ(stats.worker_busy_fraction[0], busy / (busy + idle));
}

TEST(MultiCore, TelemetryPopulated) {
  const auto trace = test_trace();
  MultiCoreEngine engine{small_config(2)};
  const auto stats = engine.run(trace);
  ASSERT_EQ(stats.max_queue_depth.size(), 2u);
  ASSERT_EQ(stats.worker_busy_fraction.size(), 2u);
  for (const auto f : stats.worker_busy_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

// RunStats counts one run, never the engine's lifetime: a second run on the
// same engine reports only its own packets, stalls and drops, with
// telemetry compiled in or out.
TEST(MultiCore, SecondRunReportsOnlyItsOwnCounts) {
  const auto trace = test_trace();
  trace::Trace half;
  half.packets.assign(trace.packets.begin(),
                      trace.packets.begin() + trace.packets.size() / 2);
  // Drop-tail with no retries: every failed push is exactly one producer
  // stall and one drop. The injected queue-full rate guarantees both runs
  // see some.
  resilience::ScopedFaults faults{
      {"runtime.queue_full", {.probability = 0.2, .seed = 11}}};
  auto config = small_config(2);
  config.queue_capacity = 1 << 8;
  config.overload.policy = OverloadPolicy::kDropTail;
  config.overload.full_queue_retries = 0;
  MultiCoreEngine engine{config};
  const auto first = engine.run(trace);
  const auto second = engine.run(half);
  for (const auto* stats : {&first, &second}) {
    std::uint64_t sum = 0;
    for (const auto p : stats->per_worker_packets) sum += p;
    EXPECT_EQ(sum, stats->processed);
    EXPECT_EQ(stats->producer_stalls, stats->dropped);
  }
  EXPECT_EQ(first.processed + first.dropped, trace.packets.size());
  EXPECT_EQ(second.packets, half.packets.size());
  EXPECT_EQ(second.processed + second.dropped, half.packets.size());
  EXPECT_GT(first.dropped, 0u);
  EXPECT_GT(second.dropped, 0u);
}

}  // namespace
}  // namespace instameasure::runtime
