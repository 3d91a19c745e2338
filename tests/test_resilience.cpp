// Overload-resilience suite: the deterministic fault-injection harness,
// the SimulatedChannel pathology knobs, reliable delegation, the
// MultiCoreEngine overload policies (accounting invariant, shed accuracy,
// paced-mode degradation), WSAF pressure signals, and the watchdog.
//
// The chaos tests arm named fault points with seeded schedules, so every
// failure pattern replays identically; the invariant they all defend is
//   offered == processed + dropped + shed
// for every policy under every schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ground_truth.h"
#include "core/wsaf_table.h"
#include "core/wsaf_view.h"
#include "delegation/reliable.h"
#include "resilience/faultpoint.h"
#include "runtime/multicore.h"
#include "telemetry/trace.h"
#include "trace/generator.h"
#include "wsaf_layout_env.h"

namespace instameasure {
namespace {

using resilience::FaultRegistry;
using resilience::FaultSpec;
using resilience::ScopedFaults;

/// Fault-schedule seeds the chaos matrices iterate. IM_CHAOS_SEED=<n>
/// narrows the matrix to that single seed — the reproduction knob: a chaos
/// failure prints its effective seed (via SCOPED_TRACE), and re-running
/// with IM_CHAOS_SEED set replays exactly that schedule.
std::vector<std::uint64_t> chaos_seeds() {
  if (const char* env = std::getenv("IM_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3};
}

// ---------- FaultPoint / FaultRegistry ----------

TEST(FaultPoint, UnarmedNeverFires) {
  auto& fp = resilience::faultpoint("test.unarmed");
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(fp.fire());
}

TEST(FaultPoint, DeterministicAcrossReArms) {
  auto& fp = resilience::faultpoint("test.determinism");
  const FaultSpec spec{.probability = 0.3, .seed = 0xabcdef};
  const auto pattern = [&] {
    FaultRegistry::instance().arm("test.determinism", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 2000; ++i) fired.push_back(fp.fire());
    return fired;
  };
  const auto a = pattern();
  const auto b = pattern();
  EXPECT_EQ(a, b) << "same seed must replay the same schedule";
  const auto fires = static_cast<double>(std::count(a.begin(), a.end(), true));
  EXPECT_NEAR(fires / 2000.0, 0.3, 0.05);
  FaultRegistry::instance().disarm("test.determinism");
}

TEST(FaultPoint, SkipFirstAndMaxFiresBudget) {
  auto& fp = resilience::faultpoint("test.budget");
  FaultRegistry::instance().arm(
      "test.budget",
      {.probability = 1.0, .max_fires = 3, .skip_first = 5, .seed = 1});
  std::vector<bool> fired;
  for (int i = 0; i < 20; ++i) fired.push_back(fp.fire());
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(fired[static_cast<size_t>(i)]);
  EXPECT_EQ(std::count(fired.begin(), fired.end(), true), 3);
  EXPECT_EQ(fp.fires(), 3u);
  EXPECT_EQ(fp.evaluations(), 20u);
  FaultRegistry::instance().disarm("test.budget");
}

TEST(FaultPoint, ArmResetsTalliesAndDisarmStops) {
  auto& fp = resilience::faultpoint("test.rearm");
  FaultRegistry::instance().arm("test.rearm", {.probability = 1.0});
  EXPECT_TRUE(fp.fire());
  EXPECT_EQ(fp.fires(), 1u);
  FaultRegistry::instance().arm("test.rearm", {.probability = 1.0});
  EXPECT_EQ(fp.fires(), 0u) << "re-arming resets per-schedule tallies";
  FaultRegistry::instance().disarm("test.rearm");
  EXPECT_FALSE(fp.fire());
}

TEST(FaultPoint, ScopedFaultsDisarmOnExit) {
  auto& fp = resilience::faultpoint("test.scoped");
  {
    ScopedFaults faults{{"test.scoped", {.probability = 1.0, .param = 7.0}}};
    EXPECT_TRUE(fp.fire());
    EXPECT_DOUBLE_EQ(fp.param(), 7.0);
  }
  EXPECT_FALSE(fp.armed());
  EXPECT_FALSE(fp.fire());
}

// ---------- SimulatedChannel pathology knobs ----------

TEST(Channel, DuplicateKnobDeliversTwice) {
  delegation::ChannelConfig config;
  config.delay_ms = 10.0;
  config.duplicate_rate = 1.0;
  config.duplicate_lag_ms = 5.0;
  delegation::SimulatedChannel<int> channel{config};
  (void)channel.send(0, 42);
  EXPECT_EQ(channel.duplicated(), 1u);
  EXPECT_EQ(channel.in_flight(), 2u);
  const auto out = channel.deliver_until(100'000'000);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 10'000'000u);
  EXPECT_EQ(out[1].first, 15'000'000u);
  EXPECT_EQ(out[0].second, 42);
  EXPECT_EQ(out[1].second, 42);
}

TEST(Channel, ReorderKnobAddsExtraDelay) {
  delegation::ChannelConfig config;
  config.delay_ms = 10.0;
  config.reorder_rate = 1.0;  // every message gets the extra delay
  config.reorder_ms = 30.0;
  delegation::SimulatedChannel<int> channel{config};
  (void)channel.send(0, 1);          // delivers at 0 + 10 + 30 = 40ms
  (void)channel.send(1'000'000, 2);  // delivers at 1 + 10 + 30 = 41ms
  EXPECT_EQ(channel.reordered(), 2u);
  const auto out = channel.deliver_until(1'000'000'000);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 40'000'000u);
  EXPECT_EQ(out[1].first, 41'000'000u);
}

TEST(Channel, ReorderFaultInvertsDeliveryOrder) {
  delegation::ChannelConfig config;
  config.delay_ms = 10.0;
  delegation::SimulatedChannel<int> channel{config};
  {
    // Only the first send is delayed (+30ms): the second message, sent
    // later, overtakes it — a true order inversion.
    ScopedFaults faults{{"delegation.channel.reorder",
                         {.probability = 1.0, .max_fires = 1, .param = 30.0}}};
    (void)channel.send(0, 1);          // delivers at 40ms
    (void)channel.send(5'000'000, 2);  // delivers at 15ms
  }
  const auto out = channel.deliver_until(1'000'000'000);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 2) << "the later send must arrive first";
  EXPECT_EQ(out[1].second, 1);
  EXPECT_EQ(channel.reordered(), 1u);
}

TEST(Channel, HeapDeliveryOrderStableForTies) {
  delegation::ChannelConfig config;
  config.delay_ms = 5.0;
  delegation::SimulatedChannel<int> channel{config};
  for (int i = 0; i < 32; ++i) (void)channel.send(0, i);  // same deliver time
  const auto out = channel.deliver_until(1'000'000'000);
  ASSERT_EQ(out.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].second, i)
        << "ties must deliver in send order";
  }
}

TEST(Channel, FaultPointsDropAndDuplicate) {
  delegation::ChannelConfig config;
  config.delay_ms = 1.0;
  delegation::SimulatedChannel<int> channel{config};
  {
    ScopedFaults faults{
        {"delegation.channel.drop", {.probability = 1.0, .max_fires = 1}}};
    EXPECT_FALSE(channel.send(0, 1).has_value());
    EXPECT_TRUE(channel.send(0, 2).has_value());
  }
  EXPECT_EQ(channel.lost(), 1u);
  {
    ScopedFaults faults{{"delegation.channel.duplicate",
                         {.probability = 1.0, .max_fires = 1}}};
    (void)channel.send(0, 3);
  }
  EXPECT_EQ(channel.duplicated(), 1u);
  const auto out = channel.deliver_until(1'000'000'000);
  EXPECT_EQ(out.size(), 3u);  // payloads 2, 3, 3
}

// ---------- ReliableLink ----------

TEST(ReliableLink, AckClearsPendingWithoutRetransmit) {
  delegation::ReliableConfig rc;
  delegation::ChannelConfig data;  // 20ms, lossless
  delegation::ReliableLink<int> link{rc, data};
  link.send(0, 7);
  EXPECT_EQ(link.unacked(), 1u);
  const auto out = link.receive(25'000'000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second, 7);
  link.tick(50'000'000);  // ack (20ms reverse) absorbed
  EXPECT_EQ(link.unacked(), 0u);
  EXPECT_TRUE(link.idle());
  EXPECT_EQ(link.stats().retransmits, 0u);
  EXPECT_EQ(link.gaps(), 0u);
}

TEST(ReliableLink, RetransmitRecoversInjectedLoss) {
  delegation::ReliableConfig rc;
  rc.rto_ms = 50.0;
  delegation::ChannelConfig data;
  delegation::ReliableLink<int> link{rc, data};
  {
    ScopedFaults faults{
        {"delegation.channel.drop", {.probability = 1.0, .max_fires = 1}}};
    link.send(0, 9);  // first transmission eaten by the fault
  }
  EXPECT_TRUE(link.receive(40'000'000).empty());
  link.tick(50'000'000);  // RTO expires -> retransmit
  const auto out = link.receive(80'000'000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second, 9);
  link.tick(200'000'000);
  EXPECT_TRUE(link.idle());
  EXPECT_EQ(link.stats().retransmits, 1u);
  EXPECT_EQ(link.gaps_vs_sent(), 0u);
}

TEST(ReliableLink, ZeroRetransmitBudgetIsLossyBaseline) {
  delegation::ReliableConfig rc;
  rc.max_retransmits = 0;
  delegation::ChannelConfig data;
  delegation::ReliableLink<int> link{rc, data};
  {
    ScopedFaults faults{
        {"delegation.channel.drop", {.probability = 1.0, .max_fires = 1}}};
    link.send(0, 1);  // lost forever
  }
  link.send(0, 2);
  (void)link.receive(25'000'000);  // payload 2 arrives; its ack is in flight
  link.tick(100'000'000);  // ack absorbed; payload 1 expires -> abandoned
  EXPECT_EQ(link.stats().abandoned, 1u);
  EXPECT_EQ(link.stats().retransmits, 0u);
  link.tick(200'000'000);
  EXPECT_EQ(link.delivered(), 1u);
  EXPECT_EQ(link.gaps_vs_sent(), 1u) << "the lost payload is a permanent gap";
  EXPECT_TRUE(link.idle());
}

TEST(ReliableLink, DuplicateDeliveriesDeduplicated) {
  delegation::ReliableConfig rc;
  delegation::ChannelConfig data;
  delegation::ReliableLink<int> link{rc, data};
  {
    ScopedFaults faults{{"delegation.channel.duplicate",
                         {.probability = 1.0, .max_fires = 1}}};
    link.send(0, 4);
  }
  const auto out = link.receive(1'000'000'000);
  ASSERT_EQ(out.size(), 1u) << "the duplicate copy must be dropped";
  EXPECT_EQ(link.stats().duplicates_dropped, 1u);
  link.tick(2'000'000'000);
  EXPECT_TRUE(link.idle());
}

// ---------- Reliable delegation pipeline ----------

trace::Trace pipeline_trace() {
  trace::TraceConfig config;
  config.duration_s = 1.0;
  config.tiers = {{4, 10'000, 20'000}};
  config.mice = {10'000, 1.1, 30};
  config.seed = 404;
  return trace::generate(config);
}

TEST(ReliablePipeline, RecoversAllEpochsAtTwentyPercentLoss) {
  const auto trace = pipeline_trace();
  delegation::PipelineConfig config;
  config.epoch_ms = 10.0;
  config.sketch.width = 1 << 12;
  config.sketch.depth = 4;
  config.channel.delay_ms = 5.0;
  config.channel.loss_rate = 0.2;
  config.channel.seed = 0x10ad;
  config.reliable.rto_ms = 20.0;
  config.reliable.ack_channel.delay_ms = 5.0;
  config.reliable.ack_channel.loss_rate = 0.2;  // acks get lost too
  config.reliable.ack_channel.seed = 0xacc;
  const auto run =
      delegation::run_reliable_pipeline(trace.packets, config, {});
  EXPECT_GT(run.epochs, 50u);
  EXPECT_EQ(run.epochs_recovered, run.epochs);
  EXPECT_EQ(run.gaps, 0u) << "every lost epoch must be retransmitted home";
  EXPECT_EQ(run.abandoned, 0u);
  EXPECT_GT(run.channel_losses, 0u) << "the channel really was lossy";
  EXPECT_GT(run.retransmits, 0u);
  EXPECT_GE(run.transmissions, run.epochs + run.retransmits);
}

TEST(ReliablePipeline, LossyBaselineCountsGapsWithoutRepair) {
  const auto trace = pipeline_trace();
  delegation::PipelineConfig config;
  config.epoch_ms = 10.0;
  config.sketch.width = 1 << 12;
  config.sketch.depth = 4;
  config.channel.delay_ms = 5.0;
  config.channel.loss_rate = 0.2;
  config.channel.seed = 0x10ad;
  config.reliable.max_retransmits = 0;  // sequenced-but-lossy
  config.reliable.ack_channel.delay_ms = 5.0;
  const auto run =
      delegation::run_reliable_pipeline(trace.packets, config, {});
  EXPECT_GT(run.gaps, 0u) << "20% loss with no repair must leave gaps";
  EXPECT_LT(run.epochs_recovered, run.epochs);
  EXPECT_EQ(run.retransmits, 0u);
  EXPECT_EQ(run.gaps, run.epochs - run.epochs_recovered);
}

// ---------- MultiCoreConfig validation ----------

runtime::MultiCoreConfig small_config(unsigned workers) {
  runtime::MultiCoreConfig config;
  config.workers = workers;
  config.queue_capacity = 1 << 10;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 14;
  config.engine.wsaf.layout = testenv::wsaf_layout_from_env();
  return config;
}

TEST(MultiCoreValidation, ZeroWorkersRejected) {
  auto config = small_config(0);
  EXPECT_THROW(runtime::MultiCoreEngine{config}, std::invalid_argument);
}

TEST(MultiCoreValidation, NonPowerOfTwoQueueRejected) {
  for (const std::size_t bad : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{1000}}) {
    auto config = small_config(2);
    config.queue_capacity = bad;
    EXPECT_THROW(runtime::MultiCoreEngine{config}, std::invalid_argument)
        << "queue_capacity=" << bad;
  }
  auto ok = small_config(2);
  ok.queue_capacity = 1 << 5;
  EXPECT_NO_THROW(runtime::MultiCoreEngine{ok});
}

// Validation failures must be actionable from the message alone: each one
// names the offending value. Pinned as text so a refactor cannot silently
// regress the diagnostics.
TEST(MultiCoreValidation, ErrorMessagesNameTheOffendingValue) {
  {
    auto config = small_config(0);
    try {
      runtime::MultiCoreEngine engine{config};
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("got 0"), std::string::npos)
          << e.what();
    }
  }
  {
    auto config = small_config(2);
    config.queue_capacity = 1000;
    try {
      runtime::MultiCoreEngine engine{config};
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("got 1000"), std::string::npos)
          << e.what();
    }
  }
  {
    auto config = small_config(2);
    config.shared_table = true;
    config.engine.enable_audit = true;
    try {
      runtime::MultiCoreEngine engine{config};
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("shared_table"), std::string::npos) << msg;
      EXPECT_NE(msg.find("enable_audit"), std::string::npos) << msg;
    }
  }
}

TEST(MultiCoreValidation, UndersizedTraceRecorderRejected) {
  if constexpr (!telemetry::kEnabled) GTEST_SKIP();
  telemetry::TraceConfig trace_config;
  trace_config.tracks = 2;  // needs workers + 1 = 5
  telemetry::TraceRecorder recorder{trace_config};
  auto config = small_config(4);
  config.trace = &recorder;
  EXPECT_THROW(runtime::MultiCoreEngine{config}, std::invalid_argument);
  telemetry::TraceConfig enough;
  enough.tracks = 5;
  telemetry::TraceRecorder big{enough};
  config.trace = &big;
  EXPECT_NO_THROW(runtime::MultiCoreEngine{config});
}

// ---------- WSAF pressure signal ----------

TEST(WsafPressure, FreshTableIsNominal) {
  core::WsafConfig config;
  config.log2_entries = 10;
  core::WsafTable table{config};
  const auto p = table.pressure();
  EXPECT_EQ(p.level, core::WsafPressureLevel::kNominal);
  EXPECT_DOUBLE_EQ(p.occupancy_ratio, 0.0);
  EXPECT_DOUBLE_EQ(p.eviction_pressure, 0.0);
}

TEST(WsafPressure, OverrunTinyTableSaturates) {
  core::WsafConfig config;
  config.log2_entries = 6;  // 64 slots
  config.probe_limit = 4;
  core::WsafTable table{config};
  // 4096 distinct flows through 64 slots: occupancy pins near 1.0 and the
  // recent-window eviction fraction approaches 1.
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const netio::FlowKey key{i + 1, ~i, 80, 443, 6};
    (void)table.accumulate(key, key.hash(1), 1.0, 100.0, i * 1000);
  }
  const auto p = table.pressure();
  EXPECT_EQ(p.level, core::WsafPressureLevel::kSaturated);
  EXPECT_GT(p.occupancy_ratio, 0.9);
  EXPECT_GT(p.eviction_pressure, 0.5);
  table.reset();
  EXPECT_EQ(table.pressure().level, core::WsafPressureLevel::kNominal);
}

// ---------- Overload policies: accounting + chaos matrix ----------

trace::Trace chaos_trace() {
  trace::TraceConfig config;
  config.duration_s = 1.0;
  config.tiers = {{4, 15'000, 30'000}, {20, 1'000, 3'000}};
  config.mice = {15'000, 1.1, 30};
  config.seed = 99;
  return trace::generate(config);
}

TEST(OverloadChaos, AccountingInvariantHoldsForAllPoliciesAndSeeds) {
  const auto trace = chaos_trace();
  const std::uint64_t offered = trace.packets.size();
  for (const std::uint64_t seed : chaos_seeds()) {
    SCOPED_TRACE("IM_CHAOS_SEED=" + std::to_string(seed));
    for (const auto policy :
         {runtime::OverloadPolicy::kBlock, runtime::OverloadPolicy::kDropTail,
          runtime::OverloadPolicy::kShed}) {
      ScopedFaults faults{
          {"runtime.queue_full", {.probability = 0.2, .seed = seed}},
          {"runtime.worker_stall",
           {.probability = 0.02, .param = 20'000.0, .seed = seed + 7}}};
      auto config = small_config(2);
      config.queue_capacity = 1 << 8;
      config.overload.policy = policy;
      config.overload.full_queue_retries = 0;  // make drops/sheds reachable
      config.overload.escalate_after_stalls = 8;
      config.overload.max_shed_level = 4;
      runtime::MultiCoreEngine engine{config};
      const auto stats = engine.run(trace);
      EXPECT_EQ(stats.packets, offered);
      EXPECT_EQ(stats.processed + stats.dropped + stats.shed, offered)
          << "policy=" << to_string(policy) << " seed=" << seed;
      std::uint64_t worker_sum = 0;
      for (const auto p : stats.per_worker_packets) worker_sum += p;
      EXPECT_EQ(worker_sum, stats.processed);
      switch (policy) {
        case runtime::OverloadPolicy::kBlock:
          EXPECT_EQ(stats.dropped, 0u);
          EXPECT_EQ(stats.shed, 0u);
          EXPECT_EQ(stats.processed, offered);
          break;
        case runtime::OverloadPolicy::kDropTail:
          EXPECT_GT(stats.dropped, 0u) << "20% queue-full faults, no retries";
          EXPECT_EQ(stats.shed, 0u);
          break;
        case runtime::OverloadPolicy::kShed:
          EXPECT_GT(stats.shed, 0u);
          EXPECT_EQ(stats.dropped, 0u);
          EXPECT_GE(stats.shed_level_peak, 1u);
          break;
      }
    }
  }
}

TEST(OverloadChaos, ShedPolicyIdleMatchesBlockBitExactly) {
  // With no pressure the ladder never engages, every item has weight 1, and
  // the shed policy must leave shard state bit-identical to kBlock.
  const auto trace = chaos_trace();
  const auto snapshots = [&](runtime::OverloadPolicy policy) {
    auto config = small_config(2);
    // Queues that hold the whole trace, so a push never finds its queue full
    // however the workers are scheduled and the ladder never engages:
    // weight-1 items only, the precondition for bit-identical shard state.
    config.queue_capacity = std::bit_ceil(trace.packets.size() + 1);
    config.overload.policy = policy;
    runtime::MultiCoreEngine engine{config};
    const auto stats = engine.run(trace);
    EXPECT_EQ(stats.shed, 0u) << to_string(policy);
    EXPECT_EQ(stats.dropped, 0u) << to_string(policy);
    std::vector<std::string> shards;
    for (unsigned w = 0; w < 2; ++w) {
      const auto path = testing::TempDir() + "resil-idle-" +
                        std::string(to_string(policy)) + "-" +
                        std::to_string(w) + ".bin";
      engine.engine(w).wsaf().save(path);
      std::ifstream in{path, std::ios::binary};
      std::ostringstream buf;
      buf << in.rdbuf();
      shards.push_back(buf.str());
    }
    return shards;
  };
  const auto block = snapshots(runtime::OverloadPolicy::kBlock);
  const auto shed = snapshots(runtime::OverloadPolicy::kShed);
  ASSERT_EQ(block.size(), shed.size());
  for (std::size_t w = 0; w < block.size(); ++w) {
    EXPECT_EQ(block[w], shed[w]) << "shard " << w;
  }
}

TEST(OverloadChaos, ShedAtQuarterKeepsHeavyHittersWithinTenPercent) {
  // Zipf trace; baseline = lossless kBlock. Chaos run: 25% of push attempts
  // hit an injected queue-full, the ladder engages, a large fraction of the
  // offered load is shed with weight compensation. The top-10 byte flows
  // must survive with estimates within 10% of the baseline's.
  trace::TraceConfig tc;
  tc.duration_s = 2.0;
  tc.tiers = {{10, 80'000, 160'000}};
  tc.mice = {25'000, 1.1, 30};
  tc.seed = 1234;
  const auto trace = trace::generate(tc);

  auto config = small_config(2);
  config.engine.wsaf.log2_entries = 16;
  runtime::MultiCoreEngine baseline{config};
  (void)baseline.run(trace);
  const auto top = baseline.top_k_bytes(10);
  ASSERT_EQ(top.size(), 10u);

  auto chaos_config = config;
  chaos_config.overload.policy = runtime::OverloadPolicy::kShed;
  chaos_config.overload.full_queue_retries = 8;
  chaos_config.overload.escalate_after_stalls = 32;
  chaos_config.overload.max_shed_level = 2;  // floor: 1/4 admission
  runtime::MultiCoreEngine chaos{chaos_config};
  runtime::RunStats stats;
  {
    ScopedFaults faults{
        {"runtime.queue_full", {.probability = 0.25, .seed = 0x7ea5}}};
    stats = chaos.run(trace);
  }
  EXPECT_GT(stats.shed, 0u) << "the ladder must have engaged";
  EXPECT_GE(stats.shed_level_peak, 1u);
  EXPECT_EQ(stats.processed + stats.dropped + stats.shed,
            trace.packets.size());

  // Every baseline top-10 flow must still be found among the chaos run's
  // top flows, with byte estimates within 10%.
  std::set<std::string> chaos_top;
  for (const auto& item : chaos.top_k_bytes(15)) {
    chaos_top.insert(item.key.to_string());
  }
  for (const auto& item : top) {
    EXPECT_TRUE(chaos_top.contains(item.key.to_string()))
        << item.key.to_string() << " lost under shedding";
    const auto est = chaos.query(item.key);
    EXPECT_NEAR(est.bytes / item.bytes, 1.0, 0.10) << item.key.to_string();
  }
}

TEST(OverloadPaced, ShedBoundsBacklogWhereBlockFallsBehind) {
  // One worker slowed to a quarter of the offered rate by an injected
  // 1 ms stall per burst. kBlock must fall behind: its ring stays full.
  // kShed must climb the ladder until admissions fit the worker, and its
  // ring drains. The runs are compared on backlog (mean queue depth), not
  // on producer stalls or wall time: those count how long yield() sleeps,
  // which a loaded host stretches. The ring drains in 16 ms at the
  // worker's rate, so a manager descheduled for a few milliseconds does
  // not empty kBlock's.
  trace::Trace slice;
  slice.name = "paced-overload";
  for (std::uint32_t i = 0; i < 51'200; ++i) {
    netio::PacketRecord rec;
    rec.timestamp_ns = i;
    rec.key = netio::FlowKey{i * 2654435761u, ~i, 80, 443, 6};
    rec.wire_len = 100;
    slice.packets.push_back(rec);
  }
  const double pace = 256'000;  // 200ms of offered traffic; worker ~64k pps
  constexpr std::size_t kCapacity = 1 << 10;
  const auto run_policy = [&](runtime::OverloadPolicy policy) {
    ScopedFaults faults{{"runtime.worker_stall",
                         {.probability = 1.0, .param = 1'000'000.0}}};
    auto config = small_config(1);
    config.queue_capacity = kCapacity;
    config.overload.policy = policy;
    config.overload.full_queue_retries = 4;
    config.overload.escalate_after_stalls = 16;
    runtime::MultiCoreEngine engine{config};
    netio::ReplaySource::Config paced;
    paced.pace_pps = pace;
    netio::ReplaySource source{
        std::span<const netio::PacketRecord>{slice.packets}, paced};
    return engine.run_source(source);
  };
  const auto block = run_policy(runtime::OverloadPolicy::kBlock);
  const auto shed = run_policy(runtime::OverloadPolicy::kShed);

  // Sanity on both: exact accounting.
  EXPECT_EQ(block.processed, slice.packets.size());
  EXPECT_EQ(shed.processed + shed.shed, slice.packets.size());
  // kBlock fell behind: the producer waited against a full ring.
  EXPECT_GT(block.producer_stalls, 0u);
  EXPECT_EQ(block.max_queue_depth[0], kCapacity);
  // kShed engaged the ladder, shed load, and carried less backlog than
  // kBlock — the graceful-degradation contract.
  EXPECT_GT(shed.shed, 0u);
  EXPECT_GE(shed.shed_level_peak, 1u);
  EXPECT_LT(shed.mean_queue_depth[0], block.mean_queue_depth[0]);
}

// ---------- Resize + shared-table chaos ----------

// Online WSAF grows under kShed with a 20% injected queue-full rate and
// occasional migrate stalls: the accounting invariant must stay exact
// while every shard's table is migrating under live ingest.
// The resize-chaos runs need tables that actually saturate mid-run. Mice
// never saturate the regulator, so WSAF occupancy is bounded by the count
// of event-producing flows: add a 200-flow mid tier (every 200-600 packet
// flow saturates a 2-bit virtual vector repeatedly) and shrink the vectors
// so events are plentiful enough to roll pressure windows (1024
// accumulates each) many times per worker.
trace::Trace resize_chaos_trace() {
  trace::TraceConfig config;
  config.duration_s = 1.0;
  config.tiers = {{4, 15'000, 30'000}, {20, 1'000, 3'000}, {200, 200, 600}};
  config.mice = {15'000, 1.1, 30};
  config.seed = 99;
  return trace::generate(config);
}

void shrink_regulator(runtime::MultiCoreConfig& config) {
  config.engine.regulator.l1_memory_bytes = 2048;
  config.engine.regulator.vv_bits = 2;
}

TEST(ResizeChaos, AccountingExactWhileTablesGrowUnderShed) {
  const auto trace = resize_chaos_trace();
  const std::uint64_t offered = trace.packets.size();
  for (const std::uint64_t seed : chaos_seeds()) {
    SCOPED_TRACE("IM_CHAOS_SEED=" + std::to_string(seed));
    ScopedFaults faults{
        {"runtime.queue_full", {.probability = 0.2, .seed = seed}},
        {"wsaf.resize.migrate_stall",
         {.probability = 0.01, .seed = seed + 3}}};
    auto config = small_config(2);
    config.queue_capacity = 1 << 8;
    config.overload.policy = runtime::OverloadPolicy::kShed;
    config.overload.full_queue_retries = 0;  // make sheds reachable
    config.overload.escalate_after_stalls = 8;
    config.overload.max_shed_level = 4;
    // Deliberately undersized with auto-grow headroom: hundreds of
    // event-producing flows pour into 2^6 slots, forcing repeated online
    // grows in the middle of the overloaded run.
    shrink_regulator(config);
    config.engine.wsaf.log2_entries = 6;
    config.engine.wsaf.grow_after_saturated_windows = 2;
    config.engine.wsaf.max_log2_entries = 14;
    runtime::MultiCoreEngine engine{config};
    const auto stats = engine.run(trace);
    EXPECT_EQ(stats.packets, offered);
    EXPECT_EQ(stats.processed + stats.dropped + stats.shed, offered);
    std::uint64_t grows = 0;
    for (unsigned w = 0; w < engine.workers(); ++w) {
      grows += engine.engine(w).wsaf().resize_stats().started;
    }
    EXPECT_GE(grows, 1u) << "the chaos run must actually have resized";
  }
}

// Injected allocation failure on every grow attempt: auto-grow keeps
// retrying and aborting, the tables never change size, and the run still
// completes with exact accounting (rollback leaves the table serving).
TEST(ResizeChaos, AllocationFailureRollsBackAndTheRunCompletes) {
  const auto trace = resize_chaos_trace();
  ScopedFaults faults{{"wsaf.resize.alloc_fail", {.probability = 1.0}}};
  auto config = small_config(2);
  shrink_regulator(config);
  config.engine.wsaf.log2_entries = 6;
  config.engine.wsaf.grow_after_saturated_windows = 2;
  config.engine.wsaf.max_log2_entries = 14;
  runtime::MultiCoreEngine engine{config};
  const auto stats = engine.run(trace);
  EXPECT_EQ(stats.processed, trace.packets.size());
  for (unsigned w = 0; w < engine.workers(); ++w) {
    const auto& wsaf = engine.engine(w).wsaf();
    EXPECT_EQ(wsaf.slot_count(), std::size_t{1} << 6)
        << "worker " << w << ": every grow attempt must have rolled back";
    EXPECT_GE(wsaf.resize_stats().aborted, 1u) << "worker " << w;
    EXPECT_EQ(wsaf.resize_stats().started, 0u) << "worker " << w;
  }
}

// Shared-table mode under the same 20% queue-full chaos: packets whose
// home queue stays full are stolen to other workers instead of shed, and
// the steal counters reconcile exactly with the accounting invariant.
TEST(SharedTableChaos, StealingPreservesExactAccounting) {
  const auto trace = chaos_trace();
  const std::uint64_t offered = trace.packets.size();
  for (const std::uint64_t seed : chaos_seeds()) {
    SCOPED_TRACE("IM_CHAOS_SEED=" + std::to_string(seed));
    ScopedFaults faults{
        {"runtime.queue_full", {.probability = 0.2, .seed = seed}}};
    auto config = small_config(4);
    config.queue_capacity = 1 << 8;
    config.shared_table = true;
    config.overload.policy = runtime::OverloadPolicy::kShed;
    config.overload.full_queue_retries = 2;
    config.overload.escalate_after_stalls = 8;
    config.overload.max_shed_level = 4;
    runtime::MultiCoreEngine engine{config};
    const auto stats = engine.run(trace);
    EXPECT_EQ(stats.packets, offered);
    EXPECT_EQ(stats.processed + stats.dropped + stats.shed, offered);
    EXPECT_GT(stats.steals, 0u)
        << "a 20% queue-full rate must have diverted some packets";
    std::uint64_t per_worker = 0;
    for (const auto s : stats.per_worker_steals) per_worker += s;
    EXPECT_EQ(per_worker, stats.steals);
  }
}

// Shared-table mode while the stripes grow online AND packets are being
// stolen: the hardest interleaving this PR ships. Accounting stays exact
// and the shared table ends with every processed flow visible once.
TEST(SharedTableChaos, ResizeUnderStealingStaysConsistent) {
  const auto trace = resize_chaos_trace();
  const std::uint64_t offered = trace.packets.size();
  for (const std::uint64_t seed : chaos_seeds()) {
    SCOPED_TRACE("IM_CHAOS_SEED=" + std::to_string(seed));
    ScopedFaults faults{
        {"runtime.queue_full", {.probability = 0.2, .seed = seed}}};
    auto config = small_config(4);
    config.queue_capacity = 1 << 8;
    config.shared_table = true;
    config.shared_log2_stripes = 2;
    config.overload.policy = runtime::OverloadPolicy::kShed;
    config.overload.full_queue_retries = 2;
    config.overload.escalate_after_stalls = 8;
    config.overload.max_shed_level = 4;
    // 4 stripes of 2^4 slots: hundreds of event-producing flows saturate
    // every stripe, so the stripes must grow online while packets are
    // simultaneously being stolen across home queues.
    shrink_regulator(config);
    config.engine.wsaf.log2_entries = 6;
    config.engine.wsaf.grow_after_saturated_windows = 2;
    config.engine.wsaf.max_log2_entries = 16;
    runtime::MultiCoreEngine engine{config};
    const auto stats = engine.run(trace);
    EXPECT_EQ(stats.processed + stats.dropped + stats.shed, offered);
    ASSERT_NE(engine.shared_table(), nullptr);
    EXPECT_GE(engine.shared_table()->resize_stats().started, 1u)
        << "the shared stripes must actually have grown";
    // One consistent epoch at the end: every live flow exactly once.
    core::WsafView view;
    engine.shared_table()->fill_view(view,
                                     engine.shared_table()->latest_ns());
    std::set<std::string> keys;
    for (const auto& e : view.entries) {
      EXPECT_TRUE(keys.insert(e.key.to_string()).second)
          << e.key.to_string() << " appears twice";
    }
  }
}

// ---------- Watchdog ----------

TEST(Watchdog, ReportsWedgedWorker) {
  // The first burst wedges the (only) worker for 100ms while the producer
  // keeps the queue non-empty; a 5ms-heartbeat watchdog must report the
  // stall well before it clears.
  trace::Trace slice;
  slice.name = "wedge";
  for (std::uint32_t i = 0; i < 200'000; ++i) {
    netio::PacketRecord rec;
    rec.timestamp_ns = i;
    rec.key = netio::FlowKey{i * 2654435761u, ~i, 80, 443, 6};
    rec.wire_len = 100;
    slice.packets.push_back(rec);
  }
  ScopedFaults faults{
      {"runtime.worker_stall",
       {.probability = 1.0, .max_fires = 1, .param = 100e6}}};
  auto config = small_config(1);
  config.queue_capacity = 1 << 12;
  config.overload.watchdog_interval_ms = 5.0;
  config.overload.watchdog_stall_intervals = 3;
  runtime::MultiCoreEngine engine{config};
  const auto stats = engine.run(slice);
  EXPECT_GE(stats.watchdog_stall_reports, 1u);
  EXPECT_EQ(stats.processed, slice.packets.size());
}

TEST(Watchdog, QuietWorkerNeverReported) {
  trace::Trace slice;
  slice.name = "quiet";
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    netio::PacketRecord rec;
    rec.timestamp_ns = i;
    rec.key = netio::FlowKey{i * 2654435761u, ~i, 80, 443, 6};
    rec.wire_len = 100;
    slice.packets.push_back(rec);
  }
  auto config = small_config(2);
  config.overload.watchdog_interval_ms = 2.0;
  runtime::MultiCoreEngine engine{config};
  const auto stats = engine.run(slice);
  EXPECT_EQ(stats.watchdog_stall_reports, 0u);
}

}  // namespace
}  // namespace instameasure
