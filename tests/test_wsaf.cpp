#include "core/wsaf_table.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace instameasure::core {
namespace {

netio::FlowKey key_n(std::uint32_t n) {
  return netio::FlowKey{n, ~n, static_cast<std::uint16_t>(n & 0xffff),
                        static_cast<std::uint16_t>((n >> 8) & 0xffff), 6};
}

WsafConfig tiny_config(unsigned log2_entries = 8, unsigned probe_limit = 4) {
  WsafConfig config;
  config.log2_entries = log2_entries;
  config.probe_limit = probe_limit;
  return config;
}

// The core behavioural contract holds for BOTH storage layouts; every
// TEST_P below runs once per layout. Sizes are chosen so the same
// expectation is exact in both: a log2=4/probe=16 table has capacity 16
// under the scalar walk (the triangular window covers all 16 slots) and
// under the bucketed layout (one 16-slot bucket) alike.
class WsafLayoutTest : public ::testing::TestWithParam<WsafLayout> {
 protected:
  WsafConfig config(unsigned log2_entries = 8,
                    unsigned probe_limit = 4) const {
    WsafConfig c = tiny_config(log2_entries, probe_limit);
    c.layout = GetParam();
    return c;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Layouts, WsafLayoutTest,
    ::testing::Values(WsafLayout::kScalarProbe, WsafLayout::kBucketed),
    [](const ::testing::TestParamInfo<WsafLayout>& info) {
      return info.param == WsafLayout::kBucketed ? "Bucketed" : "ScalarProbe";
    });

TEST_P(WsafLayoutTest, InsertThenLookup) {
  WsafTable table{config()};
  const auto key = key_n(1);
  const auto hash = key.hash();
  table.accumulate(key, hash, 10.0, 5000.0, 100);
  const auto entry = table.lookup(key, hash);
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->packets, 10.0);
  EXPECT_DOUBLE_EQ(entry->bytes, 5000.0);
  EXPECT_EQ(entry->last_update_ns, 100u);
  EXPECT_EQ(entry->key, key);
}

TEST_P(WsafLayoutTest, UpdateAccumulates) {
  WsafTable table{config()};
  const auto key = key_n(2);
  const auto hash = key.hash();
  table.accumulate(key, hash, 10.0, 1000.0, 1);
  const auto totals = table.accumulate(key, hash, 5.0, 500.0, 2);
  EXPECT_DOUBLE_EQ(totals.packets, 15.0);
  EXPECT_DOUBLE_EQ(totals.bytes, 1500.0);
  EXPECT_EQ(table.stats().inserts, 1u);
  EXPECT_EQ(table.stats().updates, 1u);
  EXPECT_EQ(table.occupancy(), 1u);
}

TEST_P(WsafLayoutTest, LookupMissingReturnsNullopt) {
  WsafTable table{config()};
  const auto key = key_n(3);
  EXPECT_FALSE(table.lookup(key, key.hash()).has_value());
}

TEST_P(WsafLayoutTest, DistinctFlowsCoexist) {
  WsafTable table{config(10, 8)};
  for (std::uint32_t n = 0; n < 100; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(), static_cast<double>(n + 1), 0.0, n);
  }
  // With load factor ~10% and probe limit 8, evictions should be rare; all
  // recently inserted flows should be findable.
  std::size_t found = 0;
  for (std::uint32_t n = 0; n < 100; ++n) {
    const auto key = key_n(n);
    if (const auto e = table.lookup(key, key.hash())) {
      EXPECT_DOUBLE_EQ(e->packets, static_cast<double>(n + 1));
      ++found;
    }
  }
  EXPECT_GE(found, 99u);
}

TEST_P(WsafLayoutTest, EvictionWhenProbeWindowFull) {
  // Capacity-16 table (see the fixture comment): the 17th distinct flow
  // must evict in either layout.
  WsafTable table{config(4, 16)};
  for (std::uint32_t n = 0; n < 17; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(), 1.0, 0.0, n);
  }
  EXPECT_EQ(table.stats().evictions, 1u);
  EXPECT_EQ(table.occupancy(), 16u);
}

TEST_P(WsafLayoutTest, SecondChancePrefersUnreferencedVictims) {
  WsafTable table{config(4, 16)};
  // Fill the table: flows 0-15.
  for (std::uint32_t n = 0; n < 16; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(), 1.0, 0.0, n);
  }
  // Touch flow 0 again -> its referenced bit is set.
  table.accumulate(key_n(0), key_n(0).hash(), 1.0, 0.0, 20);
  // New flow forces eviction; flow 0 must survive (second chance).
  const auto newcomer = key_n(99);
  table.accumulate(newcomer, newcomer.hash(), 1.0, 0.0, 21);
  EXPECT_TRUE(table.lookup(key_n(0), key_n(0).hash()).has_value());
  EXPECT_TRUE(table.lookup(newcomer, newcomer.hash()).has_value());
}

TEST_P(WsafLayoutTest, GarbageCollectionReclaimsIdleEntries) {
  WsafConfig cfg = config(4, 16);
  cfg.idle_timeout_ns = 1000;
  WsafTable table{cfg};
  for (std::uint32_t n = 0; n < 16; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(), 1.0, 0.0, /*now=*/n);
  }
  // Much later, a new flow arrives: idle entries are reclaimed inline
  // rather than evicting via second chance.
  const auto newcomer = key_n(50);
  table.accumulate(newcomer, newcomer.hash(), 1.0, 0.0, /*now=*/10'000);
  // The dead entry is recycled either by the inline probe-path reclaim or
  // by the incremental sweep that runs ahead of it — never by eviction.
  EXPECT_GE(table.stats().gc_reclaims + table.stats().gc_swept, 1u);
  EXPECT_EQ(table.stats().evictions, 0u);
  EXPECT_TRUE(table.lookup(newcomer, newcomer.hash()).has_value());
}

TEST_P(WsafLayoutTest, LookupFiltersExpiredEntries) {
  WsafConfig cfg = config(8, 4);
  cfg.idle_timeout_ns = 1'000;
  WsafTable table{cfg};
  const auto key = key_n(3);
  const auto hash = key.hash(cfg.seed);
  table.accumulate(key, hash, 5.0, 100.0, /*now=*/100);
  // Fresh as of 500, expired as of 5000: the entry is one accumulate()
  // would reclaim, so lookup must not serve it.
  EXPECT_TRUE(table.lookup(key, hash, 500).has_value());
  EXPECT_FALSE(table.lookup(key, hash, 5'000).has_value());
  // The clockless overload follows the trace-time high-water mark: another
  // flow advancing time past the timeout makes the idle flow invisible.
  EXPECT_TRUE(table.lookup(key, hash).has_value());
  const auto other = key_n(4);
  table.accumulate(other, other.hash(cfg.seed), 1.0, 0.0, /*now=*/9'000);
  EXPECT_EQ(table.latest_ns(), 9'000u);
  EXPECT_FALSE(table.lookup(key, hash).has_value());
}

TEST_P(WsafLayoutTest, LiveEntriesFiltersExpiredEntries) {
  WsafConfig cfg = config(8, 8);
  cfg.idle_timeout_ns = 1'000;
  WsafTable table{cfg};
  for (std::uint32_t n = 0; n < 10; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(cfg.seed), 1.0, 0.0, /*now=*/n);
  }
  // One flow stays active far past the others' expiry.
  const auto active = key_n(99);
  table.accumulate(active, active.hash(cfg.seed), 1.0, 0.0, /*now=*/50'000);
  EXPECT_EQ(table.live_entries().size(), 1u);
  EXPECT_EQ(table.live_entries(50'000).size(), 1u);
  // As of a time before the gap every flow was live — minus at most the
  // kSweepSlotsPerAccumulate slots the last accumulate's incremental sweep
  // may already have cleared.
  EXPECT_GE(table.live_entries(500).size(),
            11u - WsafTable::kSweepSlotsPerAccumulate);
}

TEST_P(WsafLayoutTest, OccupancyConvergesAfterFlowsGoIdle) {
  // Regression: occupied_ used to count expired entries forever unless
  // their exact slot happened to be reused, so occupancy (and the pressure
  // signal built on it) overstated load on any table with idle flows.
  WsafConfig cfg = config(6, 8);  // 64 slots
  cfg.idle_timeout_ns = 1'000;
  WsafTable table{cfg};
  for (std::uint32_t n = 0; n < 40; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(cfg.seed), 1.0, 0.0, /*now=*/n);
  }
  const auto occupied_before = table.occupancy();
  EXPECT_GE(occupied_before, 30u);

  // Everything idles past the timeout while one unrelated flow keeps the
  // table ticking. The incremental sweep (2 slots/accumulate) must walk
  // the whole table within entries()/2 accumulates and release the dead
  // entries — no traffic ever probes their chains.
  const auto active = key_n(999);
  const auto active_hash = active.hash(cfg.seed);
  for (std::uint64_t i = 0; i < 40; ++i) {
    table.accumulate(active, active_hash, 1.0, 0.0, /*now=*/100'000 + i);
  }
  EXPECT_EQ(table.occupancy(), 1u);
  EXPECT_GE(table.stats().gc_swept, occupied_before - 1);
  EXPECT_LT(table.pressure().occupancy_ratio, 0.05);
  EXPECT_EQ(table.live_entries().size(), table.occupancy());
}

TEST_P(WsafLayoutTest, SweepExpiredFullScanReleasesEverything) {
  WsafConfig cfg = config(8, 8);
  cfg.idle_timeout_ns = 1'000;
  WsafTable table{cfg};
  for (std::uint32_t n = 0; n < 20; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(cfg.seed), 1.0, 0.0, /*now=*/n);
  }
  const auto occupied = table.occupancy();
  EXPECT_EQ(table.sweep_expired(/*now=*/1'000'000), occupied);
  EXPECT_EQ(table.occupancy(), 0u);
  EXPECT_EQ(table.stats().gc_swept, occupied);
  // Idempotent: nothing left to release.
  EXPECT_EQ(table.sweep_expired(1'000'000), 0u);
  // And the released slots are genuinely reusable in both layouts (the
  // bucketed sweep must also clear the metadata bitmap).
  for (std::uint32_t n = 0; n < 20; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(cfg.seed), 1.0, 0.0, /*now=*/1'000'000 + n);
    EXPECT_TRUE(table.lookup(key, key.hash(cfg.seed)).has_value());
  }
}

TEST_P(WsafLayoutTest, ExpiredEntryIsNotUpdated) {
  WsafConfig cfg = config(4, 4);
  cfg.idle_timeout_ns = 100;
  WsafTable table{cfg};
  const auto key = key_n(7);
  table.accumulate(key, key.hash(), 5.0, 0.0, 0);
  // Long idle gap: the flow's record has expired; a new event re-inserts
  // fresh rather than resuming the stale count.
  const auto totals = table.accumulate(key, key.hash(), 3.0, 0.0, 10'000);
  EXPECT_DOUBLE_EQ(totals.packets, 3.0);
}

TEST_P(WsafLayoutTest, HighLoadFactorReachable) {
  // Quadratic probing over power-of-two size with generous probe limit
  // should fill most of a small table (bucketed: a 2-bucket window).
  WsafTable table{config(10, 32)};
  util::SplitMix64 rng{5};
  for (int n = 0; n < 5000; ++n) {
    const auto key = key_n(static_cast<std::uint32_t>(rng()));
    table.accumulate(key, key.hash(), 1.0, 0.0, static_cast<std::uint64_t>(n));
  }
  EXPECT_GT(table.load_factor(), 0.9);
}

TEST_P(WsafLayoutTest, LiveEntriesMatchesOccupancy) {
  WsafTable table{config(10, 8)};
  for (std::uint32_t n = 0; n < 50; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(), 1.0, 2.0, n);
  }
  EXPECT_EQ(table.live_entries().size(), table.occupancy());
}

TEST_P(WsafLayoutTest, ResetClears) {
  WsafTable table{config()};
  const auto key = key_n(1);
  table.accumulate(key, key.hash(), 1.0, 1.0, 1);
  table.reset();
  EXPECT_EQ(table.occupancy(), 0u);
  EXPECT_FALSE(table.lookup(key, key.hash()).has_value());
  EXPECT_EQ(table.stats().inserts, 0u);
}

TEST_P(WsafLayoutTest, RateQueriesUseLifetimeSpan) {
  WsafTable table{config()};
  const auto key = key_n(11);
  const auto hash = key.hash();
  // 100 packets at t=0, another 100 at t=1s, 20KB total bytes.
  table.accumulate(key, hash, 100.0, 10'000.0, 0);
  table.accumulate(key, hash, 100.0, 10'000.0, 1'000'000'000ULL);
  const auto entry = table.lookup(key, hash);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->first_seen_ns, 0u);
  EXPECT_EQ(entry->last_update_ns, 1'000'000'000ULL);
  EXPECT_DOUBLE_EQ(entry->packet_rate(), 200.0) << "200 pkts over 1s";
  EXPECT_DOUBLE_EQ(entry->byte_rate(), 20'000.0);
}

TEST_P(WsafLayoutTest, RateZeroForSingleEvent) {
  WsafTable table{config()};
  const auto key = key_n(12);
  table.accumulate(key, key.hash(), 50.0, 5'000.0, 777);
  const auto entry = table.lookup(key, key.hash());
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->packet_rate(), 0.0) << "no span yet";
}

TEST(WsafTable, BucketedRejectsSubBucketTable) {
  WsafConfig config = tiny_config(2, 4);  // 4 slots: less than one bucket
  config.layout = WsafLayout::kBucketed;
  EXPECT_THROW((void)WsafTable{config}, std::invalid_argument);
}

// --- Constructor validation (messages carry the offending values) ----------

// Expects `config` to be rejected with a message containing `needle`.
void expect_rejected(const WsafConfig& config, const std::string& needle) {
  try {
    WsafTable table{config};
    ADD_FAILURE() << "expected std::invalid_argument naming " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << e.what();
  }
}

TEST(WsafConfig, ZeroProbeLimitRejectedWithItsValue) {
  // A zero window finds no slot: 100 distinct flows would count 100
  // inserts and 100 evictions at occupancy 0, and none could be found.
  for (const auto layout : {WsafLayout::kScalarProbe, WsafLayout::kBucketed}) {
    WsafConfig config = tiny_config(8, 0);
    config.layout = layout;
    expect_rejected(config, "probe_limit (0)");
  }
}

TEST(WsafConfig, ProbeLimitBeyondTableSizeRejectedNamingBoth) {
  // load() refuses a window longer than the table, so the constructor does
  // too: a table it accepted could otherwise save a snapshot that does not
  // load. A window of exactly the table size is fine.
  EXPECT_EQ(WsafTable{tiny_config(4, 16)}.config().probe_limit, 16u);
  expect_rejected(tiny_config(4, 17),
                  "probe_limit (17) exceeds the table's 2^4 = 16 slots");
}

TEST(WsafConfig, OversizedLog2EntriesRejectedWithItsValue) {
  expect_rejected(tiny_config(WsafTable::kMaxLog2Entries + 1),
                  "log2_entries (41)");
}

TEST(WsafTable, PolicyVersionTracksLayout) {
  EXPECT_EQ(wsaf_eviction_policy_version(WsafLayout::kScalarProbe), 1u);
  EXPECT_EQ(wsaf_eviction_policy_version(WsafLayout::kBucketed), 2u);
  WsafTable scalar{tiny_config()};
  EXPECT_EQ(scalar.policy_version(), 1u);
  WsafConfig bucketed = tiny_config(4, 16);
  bucketed.layout = WsafLayout::kBucketed;
  EXPECT_EQ(WsafTable{bucketed}.policy_version(), 2u);
}

TEST(WsafTable, NoReclaimCountedWhenKeyMatchFollowsNotedExpiredSlot) {
  // Regression: the probe loop used to count (and trace) a GC reclaim the
  // moment an expired slot was *noted* as first_free, even when a later
  // probe found the flow's live entry and the slot was never overwritten.
  // (Scalar-layout mechanics — the slot-collision search below targets the
  // quadratic walk; the bucketed twin lives in test_wsaf_bucket.cpp.)
  WsafConfig config = tiny_config(4, 4);  // 16 slots
  config.idle_timeout_ns = 1'000;
  WsafTable table{config};
  const std::uint64_t mask = table.config().entries() - 1;

  // Two distinct keys whose probe sequences START at the same slot, chosen
  // in the table's upper half so the first few incremental sweeps (cursor
  // starts at slot 0, 2 slots per accumulate) cannot clear it mid-test.
  netio::FlowKey ka{}, kb{}, kc{};
  bool found = false;
  for (std::uint32_t a = 1; a < 200 && !found; ++a) {
    for (std::uint32_t b = a + 1; b < 200 && !found; ++b) {
      const auto key_a = key_n(a), key_b = key_n(b);
      const auto ha = key_a.hash(config.seed), hb = key_b.hash(config.seed);
      if ((ha & mask) == (hb & mask) && (ha & mask) >= 8 &&
          static_cast<std::uint32_t>(ha >> 32) !=
              static_cast<std::uint32_t>(hb >> 32)) {
        ka = key_a;
        kb = key_b;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "no colliding key pair in the search range";

  table.accumulate(ka, ka.hash(config.seed), 1.0, 0.0, /*now=*/0);
  table.accumulate(kb, kb.hash(config.seed), 1.0, 0.0, /*now=*/1);
  ASSERT_EQ(table.occupancy(), 2u);

  // At t=1001 A (last update 0) is just past the timeout while B (last
  // update 1) is still fresh. B's update probes A's slot (expired ->
  // noted), then finds its own live entry. Nothing is overwritten: no
  // reclaim may be counted.
  table.accumulate(kb, kb.hash(config.seed), 1.0, 0.0, /*now=*/1'001);
  EXPECT_EQ(table.stats().gc_reclaims, 0u);
  EXPECT_EQ(table.stats().updates, 1u);

  // A third colliding flow DOES overwrite the expired slot: reclaim now.
  for (std::uint32_t c = 1; c < 2'000; ++c) {
    const auto key_c = key_n(c + 10'000);
    const auto hc = key_c.hash(config.seed);
    if ((hc & mask) == (ka.hash(config.seed) & mask)) {
      kc = key_c;
      break;
    }
  }
  ASSERT_NE(kc, netio::FlowKey{});
  const auto swept_before = table.stats().gc_swept;
  table.accumulate(kc, kc.hash(config.seed), 1.0, 0.0, /*now=*/1'002);
  // Either the insert overwrote the expired slot (reclaim) or the sweep
  // got there first this accumulate; in both cases exactly one dead entry
  // was released and the newcomer is live.
  EXPECT_EQ(table.stats().gc_reclaims +
                (table.stats().gc_swept - swept_before),
            1u);
  EXPECT_TRUE(table.lookup(kc, kc.hash(config.seed)).has_value());
}

TEST(WsafTable, LogicalMemoryAccountingMatchesPaper) {
  WsafConfig config;
  config.log2_entries = 20;
  WsafTable table{config};
  // Paper §IV.D: 2^20 entries x 33 bytes = 33MB (sic: ~34.6MB decimal).
  EXPECT_EQ(table.logical_memory_bytes(), (1u << 20) * 33ull);
}

class WsafProbeLimitTest
    : public ::testing::TestWithParam<std::tuple<WsafLayout, unsigned>> {};

TEST_P(WsafProbeLimitTest, FlowsSurviveUnderChurn) {
  WsafConfig config = tiny_config(12, std::get<1>(GetParam()));
  config.layout = std::get<0>(GetParam());
  WsafTable table{config};
  util::SplitMix64 rng{9};
  // Persistent elephants updated continuously amid churning mice.
  std::vector<netio::FlowKey> elephants;
  for (std::uint32_t n = 0; n < 16; ++n) elephants.push_back(key_n(n));
  for (int round = 0; round < 2000; ++round) {
    for (const auto& e : elephants) {
      table.accumulate(e, e.hash(), 1.0, 0.0,
                       static_cast<std::uint64_t>(round) * 100);
    }
    for (int m = 0; m < 8; ++m) {
      const auto key = key_n(static_cast<std::uint32_t>(rng()));
      table.accumulate(key, key.hash(), 1.0, 0.0,
                       static_cast<std::uint64_t>(round) * 100 + 50);
    }
  }
  // Frequently-referenced elephants must all survive the churn.
  for (const auto& e : elephants) {
    EXPECT_TRUE(table.lookup(e, e.hash()).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProbeLimits, WsafProbeLimitTest,
    ::testing::Combine(::testing::Values(WsafLayout::kScalarProbe,
                                         WsafLayout::kBucketed),
                       ::testing::Values(4u, 8u, 16u, 32u)),
    [](const ::testing::TestParamInfo<std::tuple<WsafLayout, unsigned>>&
           info) {
      const auto layout = std::get<0>(info.param) == WsafLayout::kBucketed
                              ? "Bucketed"
                              : "ScalarProbe";
      return std::string{layout} + "Probe" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace instameasure::core
