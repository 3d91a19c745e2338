// SharedWsaf: the striped shared-table mode that underpins work-stealing.
//
// Single-threaded correctness (partitioning, views, aggregates) plus
// multi-threaded hammer tests that exist primarily as TSan targets:
// concurrent accumulates from many workers — including into saturated
// stripes that keep evicting live flows — must be data-race-free and lose
// no counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/wsaf_shared.h"
#include "core/wsaf_view.h"

namespace instameasure::core {
namespace {

netio::FlowKey key_n(std::uint32_t n) {
  return netio::FlowKey{n, n + 7, static_cast<std::uint16_t>(n), 80, 6};
}

SharedWsafConfig shared_config(unsigned log2_entries, unsigned log2_stripes,
                               WsafLayout layout = WsafLayout::kScalarProbe) {
  SharedWsafConfig config;
  config.table.log2_entries = log2_entries;
  config.table.probe_limit = 32;
  config.table.layout = layout;
  config.log2_stripes = log2_stripes;
  return config;
}

TEST(SharedWsaf, PartitionsFlowsAcrossStripesAndFindsThemAll) {
  SharedWsaf table{shared_config(12, 3)};
  const auto seed = WsafConfig{}.seed;
  constexpr std::uint32_t kFlows = 2'000;
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(seed), 1.0, 64.0, 100 + n);
  }
  EXPECT_EQ(table.occupancy(), kFlows);
  EXPECT_EQ(table.stats().inserts, kFlows);
  EXPECT_EQ(table.slot_count(), std::size_t{1} << 12);
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const auto key = key_n(n);
    const auto e = table.lookup(key, key.hash(seed));
    ASSERT_TRUE(e.has_value()) << n;
    EXPECT_DOUBLE_EQ(e->packets, 1.0) << n;
  }
  // No stripe is empty at this flow count: the hash top bits spread.
  std::size_t populated = 0;
  for (std::size_t s = 0; s < table.stripe_count(); ++s) {
    if (table.stripe(s).occupancy() > 0) ++populated;
  }
  EXPECT_EQ(populated, table.stripe_count());
}

TEST(SharedWsaf, FillViewCoversEveryFlowExactlyOnce) {
  SharedWsaf table{shared_config(10, 2)};
  const auto seed = WsafConfig{}.seed;
  for (std::uint32_t n = 0; n < 500; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(seed), 2.0, 128.0, 100 + n);
  }
  WsafView view;
  table.fill_view(view, table.latest_ns());
  EXPECT_EQ(view.entries.size(), 500u);
  std::unordered_set<std::uint64_t> keys;
  for (const auto& e : view.entries) {
    EXPECT_TRUE(keys.insert(e.key.hash()).second) << e.key.to_string();
  }
}

TEST(SharedWsaf, ValidationNamesTheOffendingValues) {
  try {
    SharedWsaf bad{shared_config(4, 17)};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("log2_stripes (17)"),
              std::string::npos)
        << e.what();
  }
  try {
    SharedWsaf bad{shared_config(5, 3, WsafLayout::kBucketed)};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("log2_entries (5)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("log2_stripes (3)"), std::string::npos) << msg;
  }
}

// --- Concurrency (TSan targets) --------------------------------------------

// Many writers, disjoint flow sets: no accumulate may be lost and every
// flow must land exactly once (the stripe locks serialize per stripe).
TEST(SharedWsafConcurrency, ParallelWritersLoseNothing) {
  SharedWsaf table{shared_config(14, 3)};
  const auto seed = WsafConfig{}.seed;
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const auto key = key_n(t * kPerThread + i);
        table.accumulate(key, key.hash(seed), 1.0, 64.0, 100 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.stats().accumulates, kThreads * std::uint64_t{kPerThread});
  EXPECT_EQ(table.occupancy(), kThreads * std::size_t{kPerThread});
}

// Shared flows hammered from every thread at comfortable load: per-flow
// totals must sum to the global accumulate count — no lost updates under
// contention (asserted zero-eviction so the equality is exact).
TEST(SharedWsafConcurrency, ContendedFlowsCountExactly) {
  SharedWsaf table{shared_config(12, 2)};
  const auto seed = WsafConfig{}.seed;
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kFlows = 180;
  constexpr std::uint32_t kReps = 1'500;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t r = 0; r < kReps; ++r) {
        const auto key = key_n((r + t) % kFlows);
        table.accumulate(key, key.hash(seed), 1.0, 64.0,
                         100 + r * kThreads + t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.stats().accumulates, kThreads * std::uint64_t{kReps});
  ASSERT_EQ(table.stats().evictions, 0u);
  ASSERT_EQ(table.stats().rejected, 0u);
  double total = 0;
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const auto key = key_n(n);
    const auto e = table.lookup(key, key.hash(seed));
    ASSERT_TRUE(e.has_value()) << n;
    total += e->packets;
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kThreads) * kReps);
}

// Saturated stripes under concurrent ingest: tiny stripes are hammered
// past capacity from several threads, so every stripe evicts WHILE other
// threads accumulate into it. TSan asserts race-freedom; the accumulate
// tally is lock-protected and exact.
TEST(SharedWsafConcurrency, SaturatedStripesUnderConcurrentIngestCountExactly) {
  SharedWsaf table{shared_config(8, 2)};
  const auto seed = WsafConfig{}.seed;
  constexpr unsigned kThreads = 4;
  // ~70 flows per 64-slot stripe: each stripe is driven to full occupancy
  // and keeps evicting.
  constexpr std::uint32_t kFlows = 280;
  constexpr std::uint32_t kReps = 3'000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t r = 0; r < kReps; ++r) {
        const auto key = key_n((r + t) % kFlows);
        table.accumulate(key, key.hash(seed), 1.0, 64.0,
                         100 + r * kThreads + t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.stats().accumulates, kThreads * std::uint64_t{kReps});
  EXPECT_GT(table.stats().evictions, 0u) << "the stripes must have saturated";
  EXPECT_EQ(table.slot_count(), std::size_t{1} << 8);
  EXPECT_LE(table.occupancy(), table.slot_count());
  // The saturated table keeps serving: every flow is insertable and
  // findable right after its accumulate.
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(seed), 1.0, 64.0, 1'000'000 + n);
    EXPECT_TRUE(table.lookup(key, key.hash(seed)).has_value()) << n;
  }
}

// Concurrent readers (lookup + pressure + fill_view from a "manager") race
// writers; TSan asserts the locking is complete.
TEST(SharedWsafConcurrency, ReadersRaceWritersSafely) {
  SharedWsaf table{shared_config(12, 3)};
  const auto seed = WsafConfig{}.seed;
  std::atomic<bool> stop{false};
  std::thread writer{[&] {
    for (std::uint32_t i = 0; i < 30'000 && !stop.load(); ++i) {
      const auto key = key_n(i % 4'000);
      table.accumulate(key, key.hash(seed), 1.0, 64.0, 100 + i);
    }
    stop.store(true);
  }};
  std::thread reader{[&] {
    WsafView view;
    while (!stop.load()) {
      const auto key = key_n(17);
      (void)table.lookup(key, key.hash(seed));
      (void)table.pressure();
      table.fill_view(view, table.latest_ns());
    }
  }};
  writer.join();
  reader.join();
  EXPECT_EQ(table.stats().accumulates, 30'000u);
}

}  // namespace
}  // namespace instameasure::core
