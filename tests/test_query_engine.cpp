// Live query plane: SnapshotChannel hand-off, ViewPublisher cadence,
// QueryEngine answers, and — the contract the whole subsystem exists for —
// differential equivalence between live queries and a stopped-engine
// full-table scan, plus a concurrent ingest/query hammer (the QueryPlane
// suite; run under TSan by scripts/run_sanitized_tests.sh).
#include "core/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "core/instameasure.h"
#include "core/snapshot_channel.h"
#include "core/topk_tracker.h"
#include "core/view_publisher.h"
#include "core/wsaf_table.h"
#include "core/wsaf_view.h"
#include "runtime/multicore.h"
#include "trace/generator.h"

namespace instameasure::core {
namespace {

netio::FlowKey key_n(std::uint32_t n) {
  return netio::FlowKey{n * 2654435761u, ~n, static_cast<std::uint16_t>(n),
                        443, 6};
}

netio::PacketRecord packet(const netio::FlowKey& key, std::uint64_t ts_ns,
                           std::uint16_t len = 500) {
  return netio::PacketRecord{ts_ns, key, len};
}

// Commit one view holding a single marker entry with `packets`.
void publish_marker(SnapshotChannel& channel, double packets) {
  WsafView* view = channel.begin_publish();
  ASSERT_NE(view, nullptr);
  view->clear();
  view->entries.push_back({key_n(1), key_n(1).hash(), packets, 0.0, 0, 0});
  channel.commit();
}

// --- SnapshotChannel -------------------------------------------------------

TEST(SnapshotChannel, EmptyChannelReadsEmpty) {
  SnapshotChannel channel;
  EXPECT_FALSE(channel.read());
  EXPECT_EQ(channel.version(), 0u);
  EXPECT_EQ(channel.skipped_publishes(), 0u);
}

TEST(SnapshotChannel, PublishThenReadRoundTrips) {
  SnapshotChannel channel;
  publish_marker(channel, 42.0);
  const auto view = channel.read();
  ASSERT_TRUE(view);
  EXPECT_EQ(view->version, 1u);
  ASSERT_EQ(view->entries.size(), 1u);
  EXPECT_DOUBLE_EQ(view->entries[0].packets, 42.0);
  EXPECT_EQ(channel.version(), 1u);
}

TEST(SnapshotChannel, PinnedReaderKeepsItsViewWhileWriterRepublishes) {
  SnapshotChannel channel;
  publish_marker(channel, 1.0);
  const auto pinned = channel.read();
  ASSERT_TRUE(pinned);
  // Two more publishes land in other buffers; the pin's content is frozen.
  publish_marker(channel, 2.0);
  publish_marker(channel, 3.0);
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_DOUBLE_EQ(pinned->entries[0].packets, 1.0);
  // A fresh read sees the newest commit.
  const auto fresh = channel.read();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->version, 3u);
  EXPECT_DOUBLE_EQ(fresh->entries[0].packets, 3.0);
}

TEST(SnapshotChannel, WriterSkipsInsteadOfBlockingWhenEverySpareIsPinned) {
  SnapshotChannel channel;
  // Pin a distinct buffer after each publish until readers hold all
  // kBuffers of them (the last pin is the current view).
  std::vector<SnapshotChannel::ReadView> pins;
  for (unsigned i = 0; i < SnapshotChannel::kBuffers; ++i) {
    publish_marker(channel, static_cast<double>(i));
    pins.push_back(channel.read());
    ASSERT_TRUE(pins.back());
  }
  // Every spare buffer is reader-pinned: the writer must skip, not wait.
  EXPECT_EQ(channel.begin_publish(), nullptr);
  EXPECT_EQ(channel.skipped_publishes(), 1u);
  // Releasing any straggler frees a buffer for the next publish.
  pins.erase(pins.begin());
  EXPECT_NE(channel.begin_publish(), nullptr);
  channel.commit();
  EXPECT_EQ(channel.version(), SnapshotChannel::kBuffers + 1);
}

// Prolonged reader starvation in the middle of an online resize: every
// spare buffer stays pinned while the table grows under ingest. The writer
// must skip every publish (counted exactly, never blocking the data plane),
// the last committed view must stay readable and untouched, and the first
// publish after the pins release must reflect the grown table.
TEST(SnapshotChannel, StarvationDuringResizeCountsSkipsAndKeepsLastView) {
  WsafConfig tc;
  tc.log2_entries = 10;
  tc.probe_limit = 16;
  WsafTable table{tc};
  const auto mk = [](std::uint32_t n) {
    return netio::FlowKey{n, n + 7, static_cast<std::uint16_t>(n), 80, 6};
  };
  for (std::uint32_t n = 0; n < 400; ++n) {
    table.accumulate(mk(n), mk(n).hash(tc.seed), 1.0, 64.0, 100 + n);
  }
  ViewPublisher publisher;
  std::vector<SnapshotChannel::ReadView> pins;
  for (unsigned i = 0; i < SnapshotChannel::kBuffers; ++i) {
    ASSERT_TRUE(publisher.publish_now(table, table.latest_ns()));
    pins.push_back(publisher.channel().read());
    ASSERT_TRUE(pins.back());
  }
  const auto last_version = pins.back()->version;
  const auto last_entries = pins.back()->entries.size();

  ASSERT_TRUE(table.begin_resize(11));
  std::uint64_t skips = 0;
  for (std::uint32_t t = 0; t < 100; ++t) {
    table.accumulate(mk(t % 400), mk(t % 400).hash(tc.seed), 1.0, 64.0,
                     10'000 + t);
    EXPECT_FALSE(publisher.publish_now(table, table.latest_ns()))
        << "all spares pinned: publish " << t << " must skip";
    ++skips;
  }
  table.finish_resize();
  EXPECT_EQ(publisher.skipped_publishes(), skips) << "skip counter exact";
  const auto fresh = publisher.channel().read();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->version, last_version)
      << "the last committed view must survive the starvation";
  EXPECT_EQ(fresh->entries.size(), last_entries);

  pins.clear();
  EXPECT_TRUE(publisher.publish_now(table, table.latest_ns()));
  const auto grown = publisher.channel().read();
  ASSERT_TRUE(grown);
  EXPECT_EQ(grown->version, last_version + 1);
  EXPECT_EQ(grown->entries.size(), 400u)
      << "the post-release view reflects the grown table's live set";
}

// --- ViewPublisher cadence -------------------------------------------------

WsafConfig small_table_config() {
  WsafConfig config;
  config.log2_entries = 8;
  config.probe_limit = 8;
  return config;
}

TEST(ViewPublisher, PacketCadencePublishesEveryNPackets) {
  WsafTable table{small_table_config()};
  ViewPublishConfig config;
  config.publish_every_packets = 4;
  ViewPublisher publisher{config};
  for (int round = 1; round <= 3; ++round) {
    EXPECT_FALSE(publisher.maybe_publish(table, 10));
    EXPECT_FALSE(publisher.maybe_publish(table, 20));
    EXPECT_FALSE(publisher.maybe_publish(table, 30));
    EXPECT_TRUE(publisher.maybe_publish(table, 40));
    EXPECT_EQ(publisher.publishes(), static_cast<std::uint64_t>(round));
  }
}

TEST(ViewPublisher, BatchedTickCountsEveryPacketInTheChunk) {
  WsafTable table{small_table_config()};
  ViewPublishConfig config;
  config.publish_every_packets = 100;
  ViewPublisher publisher{config};
  EXPECT_FALSE(publisher.maybe_publish(table, 10, /*packets=*/64));
  EXPECT_TRUE(publisher.maybe_publish(table, 20, /*packets=*/64));
}

TEST(ViewPublisher, AutoCadenceScalesWithTableSize) {
  WsafTable small{small_table_config()};
  ViewPublisher publisher{ViewPublishConfig{}};
  // Small tables floor at 2^16 packets; big tables at slots * 8.
  EXPECT_EQ(publisher.effective_every_packets(small), std::uint64_t{1} << 16);
  WsafConfig big_config = small_table_config();
  big_config.log2_entries = 14;
  WsafTable big{big_config};
  EXPECT_EQ(publisher.effective_every_packets(big),
            (std::uint64_t{1} << 14) * 8);
}

TEST(ViewPublisher, TimeCadencePublishesOnTraceTime) {
  WsafTable table{small_table_config()};
  ViewPublishConfig config;
  config.publish_every_packets = std::uint64_t{1} << 40;  // never by count
  config.publish_every_ns = 1'000;
  ViewPublisher publisher{config};
  EXPECT_TRUE(publisher.maybe_publish(table, 0));     // first tick primes
  EXPECT_FALSE(publisher.maybe_publish(table, 500));  // interval not elapsed
  EXPECT_FALSE(publisher.maybe_publish(table, 999));
  EXPECT_TRUE(publisher.maybe_publish(table, 1'000));
  EXPECT_FALSE(publisher.maybe_publish(table, 1'500));
  EXPECT_TRUE(publisher.maybe_publish(table, 2'100));
  EXPECT_EQ(publisher.publishes(), 3u);
}

TEST(ViewPublisher, PublishedViewMirrorsTheTable) {
  WsafConfig table_config = small_table_config();
  WsafTable table{table_config};
  for (std::uint32_t n = 0; n < 20; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(table_config.seed),
                     static_cast<double>(n + 1), (n + 1) * 100.0, n * 10);
  }
  ViewPublishConfig config;
  config.shard = 3;
  ViewPublisher publisher{config};
  ASSERT_TRUE(publisher.publish_now(table, /*now_ns=*/500));

  const auto view = publisher.channel().read();
  ASSERT_TRUE(view);
  EXPECT_EQ(view->shard, 3u);
  EXPECT_EQ(view->as_of_ns, 500u);
  EXPECT_GT(view->publish_wall_ns, 0u);
  ASSERT_EQ(view->entries.size(), table.live_entries().size());
  for (const auto& e : view->entries) {
    const auto truth = table.lookup(e.key, e.flow_hash);
    ASSERT_TRUE(truth.has_value()) << e.key.to_string();
    EXPECT_DOUBLE_EQ(e.packets, truth->packets);
    EXPECT_DOUBLE_EQ(e.bytes, truth->bytes);
    EXPECT_EQ(e.first_seen_ns, truth->first_seen_ns);
    EXPECT_EQ(e.last_update_ns, truth->last_update_ns);
  }
}

// --- QueryEngine over a scalar engine: live answers == stopped scan --------

EngineConfig scalar_engine_config(EvictionPolicy eviction) {
  EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 12;
  config.wsaf.eviction = eviction;
  config.publish_views = true;
  config.publish.publish_every_packets = 1 << 12;
  return config;
}

class ScalarQueryDifferential
    : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(ScalarQueryDifferential, AnswersMatchStoppedEngineScan) {
  InstaMeasure engine{scalar_engine_config(GetParam())};
  ASSERT_NE(engine.view_channel(), nullptr);

  // 12 elephants with well-separated sizes plus a mice tail.
  std::uint64_t ts = 0;
  for (std::uint32_t n = 0; n < 12; ++n) {
    const auto key = key_n(n);
    for (std::uint32_t i = 0; i < 4'000 + 4'000 * n; ++i) {
      engine.process(packet(key, ts += 100));
    }
  }
  for (std::uint32_t n = 100; n < 400; ++n) {
    engine.process(packet(key_n(n), ts += 100));
  }
  ASSERT_TRUE(engine.publish_view_now());

  QueryEngine queries{{engine.view_channel()}};
  const auto& wsaf = engine.wsaf();
  const auto seed = engine.config().wsaf.seed;

  // Flow counts: every live table entry is queryable with exact values.
  EXPECT_EQ(queries.active_flow_count(), wsaf.live_entries().size());
  for (const auto* entry : wsaf.live_entries()) {
    const auto answer = queries.flow(entry->key);
    ASSERT_TRUE(answer.has_value()) << entry->key.to_string();
    EXPECT_DOUBLE_EQ(answer->packets, entry->packets);
    EXPECT_DOUBLE_EQ(answer->bytes, entry->bytes);
  }
  EXPECT_FALSE(queries.flow(key_n(9'999)).has_value());

  // Top-K: identical value sequences to the table scan, both metrics.
  for (const auto metric : {TopKMetric::kPackets, TopKMetric::kBytes}) {
    const auto live = queries.top_k(10, metric);
    const auto scan = top_k(wsaf, 10, metric);
    ASSERT_EQ(live.size(), scan.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].key, scan[i].key) << "rank " << i;
      EXPECT_DOUBLE_EQ(live[i].packets, scan[i].packets);
      EXPECT_DOUBLE_EQ(live[i].bytes, scan[i].bytes);
    }
  }

  // Heavy hitters: same set as filtering the stopped table directly.
  const double threshold = 10'000.0;
  const auto hh = queries.heavy_hitters(threshold, TopKMetric::kPackets);
  std::size_t expected = 0;
  for (const auto* entry : wsaf.live_entries()) {
    if (entry->packets >= threshold) ++expected;
  }
  EXPECT_EQ(hh.size(), expected);
  for (const auto& e : hh) {
    const auto truth = wsaf.lookup(e.key, e.key.hash(seed));
    ASSERT_TRUE(truth.has_value());
    EXPECT_DOUBLE_EQ(e.packets, truth->packets);
    EXPECT_GE(e.packets, threshold);
  }

  EXPECT_GE(queries.merges(), 4u);
  EXPECT_LT(queries.snapshot_age_ns(), std::uint64_t{60} * 1'000'000'000);
  ASSERT_EQ(queries.versions().size(), 1u);
  EXPECT_GE(queries.versions()[0], 1u);
}

INSTANTIATE_TEST_SUITE_P(EvictionPolicies, ScalarQueryDifferential,
                         ::testing::Values(EvictionPolicy::kSecondChance,
                                           EvictionPolicy::kStalest));

TEST(QueryEngine, UnpublishedShardReportsUnboundedAge) {
  SnapshotChannel published, silent;
  publish_marker(published, 1.0);
  QueryEngine queries{{&published, &silent}};
  EXPECT_EQ(queries.snapshot_age_ns(), UINT64_MAX);
  EXPECT_EQ(queries.versions(), (std::vector<std::uint64_t>{1, 0}));
  // Queries still answer from the shards that have published.
  EXPECT_EQ(queries.active_flow_count(), 1u);
}

// --- QueryEngine over a multicore engine -----------------------------------

class MultiCoreQueryDifferential
    : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(MultiCoreQueryDifferential, AnswersMatchStoppedEngineScan) {
  trace::TraceConfig trace_config;
  trace_config.duration_s = 1.0;
  trace_config.tiers = {{4, 20'000, 40'000}, {40, 1'000, 4'000}};
  trace_config.mice = {20'000, 1.0, 30};
  trace_config.seed = 77;
  const auto trace = trace::generate(trace_config);

  runtime::MultiCoreConfig config;
  config.workers = 4;
  config.queue_capacity = 1 << 12;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 14;
  config.engine.wsaf.eviction = GetParam();
  runtime::MultiCoreEngine engine{config};
  const auto run_stats = engine.run(trace);
  const auto* queries = engine.queries();
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->shards(), 4u);
  // The end-of-run drain publishes a final view per worker, so the query
  // plane reflects every processed packet.
  EXPECT_GE(run_stats.views_published, 4u);

  std::size_t live_total = 0;
  for (unsigned w = 0; w < engine.workers(); ++w) {
    live_total += engine.engine(w).wsaf().live_entries().size();
  }
  EXPECT_EQ(queries->active_flow_count(), live_total);

  // Top-K value sequences equal the stopped-engine merged scan.
  const auto live_top = queries->top_k(20, TopKMetric::kPackets);
  const auto scan_top = engine.top_k_packets(20);
  ASSERT_EQ(live_top.size(), scan_top.size());
  for (std::size_t i = 0; i < live_top.size(); ++i) {
    EXPECT_DOUBLE_EQ(live_top[i].packets, scan_top[i].packets) << "rank " << i;
  }

  // Heavy hitters agree with per-shard table lookups, exactly.
  const auto hh = queries->heavy_hitters(5'000.0, TopKMetric::kPackets);
  std::size_t expected = 0;
  for (unsigned w = 0; w < engine.workers(); ++w) {
    for (const auto* entry : engine.engine(w).wsaf().live_entries()) {
      if (entry->packets >= 5'000.0) ++expected;
    }
  }
  EXPECT_EQ(hh.size(), expected);
  for (const auto& e : hh) {
    const auto& shard = engine.engine(engine.worker_of(e.key));
    // Each worker hashes with its own seed; look up in its domain.
    const auto truth =
        shard.wsaf().lookup(e.key, e.key.hash(shard.config().wsaf.seed));
    ASSERT_TRUE(truth.has_value()) << e.key.to_string();
    EXPECT_DOUBLE_EQ(e.packets, truth->packets);
    EXPECT_DOUBLE_EQ(e.bytes, truth->bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(EvictionPolicies, MultiCoreQueryDifferential,
                         ::testing::Values(EvictionPolicy::kSecondChance,
                                           EvictionPolicy::kStalest));

// --- TopKTracker / view equivalence ----------------------------------------

TEST(TopKTracker, TrackedSetMatchesViewTopK) {
  // With no WSAF evictions the streaming tracker and a post-hoc view scan
  // must rank the same flows with the same running totals.
  EngineConfig config = scalar_engine_config(EvictionPolicy::kSecondChance);
  config.track_top_k = 8;
  InstaMeasure engine{config};
  std::uint64_t ts = 0;
  for (std::uint32_t n = 0; n < 16; ++n) {
    const auto key = key_n(n);
    for (std::uint32_t i = 0; i < 3'000 + 2'500 * n; ++i) {
      engine.process(packet(key, ts += 100));
    }
  }
  ASSERT_TRUE(engine.publish_view_now());
  const auto channel_view = engine.view_channel()->read();
  ASSERT_TRUE(channel_view);

  const auto tracked = engine.current_top_k();
  const WsafView* views[] = {&*channel_view};
  const auto scanned = view_top_k(views, 8, TopKMetric::kPackets);
  ASSERT_EQ(tracked.size(), scanned.size());
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    EXPECT_EQ(tracked[i].first, scanned[i].key) << "rank " << i;
    EXPECT_DOUBLE_EQ(tracked[i].second, scanned[i].packets);
  }

  // And the tracker's own view export ranks identically.
  const auto tracker_view = [&] {
    TopKTracker shadow{8};
    for (const auto& e : channel_view->entries) {
      shadow.update(e.key, e.flow_hash, e.packets, e.bytes, e.first_seen_ns,
                    e.last_update_ns);
    }
    return shadow.as_view();
  }();
  ASSERT_EQ(tracker_view.entries.size(), scanned.size());
  for (std::size_t i = 0; i < scanned.size(); ++i) {
    EXPECT_EQ(tracker_view.entries[i].key, scanned[i].key) << "rank " << i;
    EXPECT_DOUBLE_EQ(tracker_view.entries[i].packets, scanned[i].packets);
  }
}

// --- Concurrent ingest/query hammer (TSan target) --------------------------

TEST(QueryPlane, ConcurrentQueriesDuringIngest) {
  trace::TraceConfig trace_config;
  trace_config.duration_s = 1.0;
  trace_config.tiers = {{4, 20'000, 40'000}, {40, 1'000, 4'000}};
  trace_config.mice = {30'000, 1.0, 30};
  trace_config.seed = 99;
  const auto trace = trace::generate(trace_config);

  runtime::MultiCoreConfig config;
  config.workers = 4;
  config.queue_capacity = 1 << 12;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 14;
  // Publish often so readers race live commits, not just the final drain.
  config.query_plane.publish_every_packets = 1 << 10;
  runtime::MultiCoreEngine engine{config};
  const auto* queries = engine.queries();
  ASSERT_NE(queries, nullptr);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  auto reader = [&] {
    const auto probe = trace.packets.front().key;
    while (!done.load(std::memory_order_acquire)) {
      const auto top = queries->top_k(5, TopKMetric::kPackets);
      for (std::size_t i = 1; i < top.size(); ++i) {
        // Each answer must be internally consistent: descending order.
        EXPECT_GE(top[i - 1].packets, top[i].packets);
      }
      (void)queries->flow(probe);
      (void)queries->heavy_hitters(1'000.0, TopKMetric::kPackets);
      (void)queries->active_flow_count();
      (void)queries->snapshot_age_ns();
      (void)queries->versions();
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1{reader}, r2{reader};
  // Pace the replay so ingest and queries genuinely overlap.
  netio::ReplaySource::Config paced;
  paced.pace_pps = 1.5e6;
  netio::ReplaySource source{
      std::span<const netio::PacketRecord>{trace.packets}, paced};
  const auto stats = engine.run_source(source);
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(stats.views_published, 4u);
  EXPECT_EQ(stats.processed, trace.packets.size());

  // After the run the final views reflect the complete replay: the live
  // answer now equals the stopped-engine scan.
  const auto live_top = queries->top_k(10, TopKMetric::kPackets);
  const auto scan_top = engine.top_k_packets(10);
  ASSERT_EQ(live_top.size(), scan_top.size());
  for (std::size_t i = 0; i < live_top.size(); ++i) {
    EXPECT_DOUBLE_EQ(live_top[i].packets, scan_top[i].packets) << "rank " << i;
  }
  EXPECT_GE(queries->merges(), reads.load());
}

}  // namespace
}  // namespace instameasure::core
