// Cross-layout differential suite: the contract that makes the bucketed
// WSAF layout shippable. kScalarProbe and kBucketed differ in probe and
// eviction *granularity* (eviction-policy v1 vs v2), so exact equality is
// asserted where the contract promises it:
//
//  * zero-eviction regime (the common case the paper sizes for): identical
//    detection sets, query results, and live-entry sets across Zipf
//    traces × seeds × eviction policies — asserted with evictions==0 and
//    rejected==0 so a sizing regression cannot silently weaken the test;
//  * capacity-identical geometry (log2_entries=4, probe_limit=16: the whole
//    table is one probe window in BOTH layouts): identical behaviour even
//    under overflow/reject pressure and idle-timeout expiry;
//  * ragged occupancy with bucket-overflow probing: every flow findable in
//    both layouts at high, uneven load;
//  * sweep_expired() interleavings: partial sweeps hit different slots in
//    different layouts, but the *live* view must never diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/instameasure.h"
#include "trace/generator.h"

namespace instameasure::core {
namespace {

EngineConfig engine_config(WsafLayout layout, EvictionPolicy policy) {
  EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  // ~8k distinct flows into 2^15 slots with a 32-slot / 2-bucket probe
  // window: load ~0.25, so neither layout ever evicts or rejects (asserted
  // by the tests — the zero-eviction regime is where exact cross-layout
  // equality is the contract).
  config.wsaf.log2_entries = 15;
  config.wsaf.probe_limit = 32;
  config.wsaf.layout = layout;
  config.wsaf.eviction = policy;
  config.heavy_hitter.packet_threshold = 5'000;
  config.heavy_hitter.byte_threshold = 4'000'000;
  return config;
}

trace::Trace zipf_trace(std::uint64_t seed) {
  trace::TraceConfig config;
  config.name = "layout-equivalence-" + std::to_string(seed);
  config.duration_s = 1.0;
  config.tiers = {{3, 15'000, 30'000}, {25, 1'000, 4'000}};
  config.mice = {8'000, 1.1, 40};
  config.seed = seed;
  return trace::generate(config);
}

[[nodiscard]] std::vector<netio::FlowKey> sample_keys(
    const trace::Trace& trace, std::size_t limit = 400) {
  std::unordered_set<std::uint64_t> seen;
  std::vector<netio::FlowKey> keys;
  for (const auto& rec : trace.packets) {
    if (keys.size() >= limit) break;
    if (seen.insert(rec.key.hash()).second) keys.push_back(rec.key);
  }
  return keys;
}

// Layout-agnostic image of the resident working set: slot numbers differ
// between layouts by design, so equality is over the sorted logical
// entries, not snapshot bytes.
using LogicalEntry =
    std::tuple<netio::FlowKey, double, double, std::uint64_t, std::uint64_t>;

[[nodiscard]] std::vector<LogicalEntry> logical_entries(const WsafTable& table,
                                                        std::uint64_t now_ns) {
  std::vector<LogicalEntry> out;
  for (const auto* e : table.live_entries(now_ns)) {
    out.emplace_back(e->key, e->packets, e->bytes, e->first_seen_ns,
                     e->last_update_ns);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_zero_pressure(const InstaMeasure& engine, const char* which) {
  // The exact-equality contract only holds when nothing was displaced; if a
  // trace/sizing change makes this fire, re-size — do not weaken the test.
  EXPECT_EQ(engine.wsaf().stats().evictions, 0u) << which;
  EXPECT_EQ(engine.wsaf().stats().rejected, 0u) << which;
}

void expect_equivalent(const InstaMeasure& scalar, const InstaMeasure& bucketed,
                       const trace::Trace& trace, const std::string& tag) {
  SCOPED_TRACE(tag);
  expect_zero_pressure(scalar, "scalar");
  expect_zero_pressure(bucketed, "bucketed");

  EXPECT_EQ(scalar.packets_processed(), bucketed.packets_processed());
  const auto& ws = scalar.wsaf().stats();
  const auto& wb = bucketed.wsaf().stats();
  EXPECT_EQ(ws.accumulates, wb.accumulates);
  EXPECT_EQ(ws.inserts, wb.inserts);
  EXPECT_EQ(ws.updates, wb.updates);
  // NOT compared: stats.probes — its unit is slots in kScalarProbe and
  // buckets in kBucketed (see docs/OBSERVABILITY.md).
  EXPECT_EQ(scalar.wsaf().occupancy(), bucketed.wsaf().occupancy());

  // Full working set, entry for entry.
  const auto now = std::max(scalar.wsaf().latest_ns(),
                            bucketed.wsaf().latest_ns());
  EXPECT_EQ(logical_entries(scalar.wsaf(), now),
            logical_entries(bucketed.wsaf(), now));

  // Detection log: same flows, same instants, same values, same order.
  const auto& ds = scalar.detections();
  const auto& db = bucketed.detections();
  ASSERT_EQ(ds.size(), db.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds[i].key, db[i].key) << "detection " << i;
    EXPECT_EQ(ds[i].detected_at_ns, db[i].detected_at_ns) << "detection " << i;
    EXPECT_DOUBLE_EQ(ds[i].value_at_detection, db[i].value_at_detection)
        << "detection " << i;
    EXPECT_EQ(ds[i].metric, db[i].metric) << "detection " << i;
  }

  // Per-flow online decode, exactly.
  for (const auto& key : sample_keys(trace)) {
    const auto es = scalar.query(key);
    const auto eb = bucketed.query(key);
    EXPECT_EQ(es.in_wsaf, eb.in_wsaf) << key.to_string();
    EXPECT_DOUBLE_EQ(es.packets, eb.packets) << key.to_string();
    EXPECT_DOUBLE_EQ(es.bytes, eb.bytes) << key.to_string();
  }
}

[[nodiscard]] InstaMeasure run_engine(const trace::Trace& trace,
                                      WsafLayout layout,
                                      EvictionPolicy policy) {
  InstaMeasure engine{engine_config(layout, policy)};
  for (const auto& rec : trace.packets) engine.process(rec);
  return engine;
}

// 3 randomized Zipf traces × 3 eviction policies = 9 scalar-vs-bucketed
// comparisons over the full engine pipeline.
TEST(WsafLayoutEquivalence, ZipfTracesAcrossSeedsAndEvictionPolicies) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    const auto trace = zipf_trace(seed);
    for (const auto policy : {EvictionPolicy::kSecondChance,
                              EvictionPolicy::kStalest, EvictionPolicy::kNone}) {
      const auto scalar =
          run_engine(trace, WsafLayout::kScalarProbe, policy);
      ASSERT_FALSE(scalar.detections().empty())
          << "trace seed " << seed
          << " must raise detections or the differential test has no teeth";
      const auto bucketed = run_engine(trace, WsafLayout::kBucketed, policy);
      expect_equivalent(scalar, bucketed, trace,
                        "seed=" + std::to_string(seed) +
                            " policy=" + std::to_string(static_cast<int>(policy)));
    }
  }
}

// The batched pipeline and the bucketed layout compose: process_batch() on
// a bucketed engine must stay bit-equivalent to scalar process() calls on
// the SAME layout (snapshots comparable within one layout).
TEST(WsafLayoutEquivalence, BatchProcessingMatchesScalarInBucketedLayout) {
  const auto trace = zipf_trace(44);
  const auto one_by_one =
      run_engine(trace, WsafLayout::kBucketed, EvictionPolicy::kSecondChance);
  InstaMeasure batched{
      engine_config(WsafLayout::kBucketed, EvictionPolicy::kSecondChance)};
  const std::span<const netio::PacketRecord> all{trace.packets};
  for (std::size_t off = 0; off < all.size(); off += 64) {
    batched.process_batch(
        all.subspan(off, std::min<std::size_t>(64, all.size() - off)));
  }
  const auto& ws = one_by_one.wsaf().stats();
  const auto& wbat = batched.wsaf().stats();
  EXPECT_EQ(ws.accumulates, wbat.accumulates);
  EXPECT_EQ(ws.inserts, wbat.inserts);
  EXPECT_EQ(ws.probes, wbat.probes);  // same layout: same unit (buckets)
  EXPECT_EQ(ws.tag_collisions, wbat.tag_collisions);
  const auto now = one_by_one.wsaf().latest_ns();
  EXPECT_EQ(logical_entries(one_by_one.wsaf(), now),
            logical_entries(batched.wsaf(), now));
}

// --- Table-level differentials --------------------------------------------

netio::FlowKey key_n(std::uint32_t n) {
  return netio::FlowKey{n, n + 7, static_cast<std::uint16_t>(n), 80, 6};
}

WsafConfig table_config(WsafLayout layout, unsigned log2, unsigned probe) {
  WsafConfig config;
  config.log2_entries = log2;
  config.probe_limit = probe;
  config.layout = layout;
  return config;
}

// log2_entries=4 + probe_limit=16: capacity is exactly 16 in BOTH layouts
// (the scalar triangular sequence visits all 16 slots; the bucketed table
// is a single bucket). With kNone, overflow behaviour — who gets in, who
// gets rejected — must be identical even though the layouts place entries
// in different slots.
TEST(WsafLayoutEquivalence, RejectPolicyKeepsIdenticalResidentSetsUnderOverflow) {
  auto cfg = table_config(WsafLayout::kScalarProbe, 4, 16);
  cfg.eviction = EvictionPolicy::kNone;
  WsafTable s{cfg};
  cfg.layout = WsafLayout::kBucketed;
  WsafTable b{cfg};

  for (std::uint32_t n = 0; n < 40; ++n) {
    const auto key = key_n(n);
    const auto h = key.hash(cfg.seed);
    s.accumulate(key, h, 1.0, 100.0, 10 + n);
    b.accumulate(key, h, 1.0, 100.0, 10 + n);
  }
  EXPECT_EQ(s.occupancy(), 16u);
  EXPECT_EQ(b.occupancy(), 16u);
  EXPECT_EQ(s.stats().rejected, b.stats().rejected);
  EXPECT_EQ(s.stats().rejected, 24u);
  for (std::uint32_t n = 0; n < 40; ++n) {
    const auto key = key_n(n);
    const auto h = key.hash(cfg.seed);
    const auto es = s.lookup(key, h, 10 + 40);
    const auto eb = b.lookup(key, h, 10 + 40);
    ASSERT_EQ(es.has_value(), eb.has_value()) << "flow " << n;
    // First-come-first-kept: with kNone the first 16 flows are resident.
    EXPECT_EQ(es.has_value(), n < 16) << "flow " << n;
  }
}

// Ragged occupancy at high load: 700 flows into 1024 slots (64 buckets)
// leaves some buckets overflowing into their neighbours while others sit
// near-empty. Every flow must remain findable, with identical counters, in
// both layouts — this is the bucket-overflow probe path under real skew.
TEST(WsafLayoutEquivalence, RaggedOccupancyKeepsEveryFlowFindable) {
  WsafTable s{table_config(WsafLayout::kScalarProbe, 10, 48)};
  WsafTable b{table_config(WsafLayout::kBucketed, 10, 48)};
  const auto seed = s.config().seed;
  constexpr std::uint32_t kFlows = 700;
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const auto key = key_n(n);
    const auto h = key.hash(seed);
    // Skewed update counts: flow n gets 1 + n % 7 accumulates.
    for (std::uint32_t r = 0; r <= n % 7; ++r) {
      s.accumulate(key, h, 2.0, 64.0, 100 + n + r);
      b.accumulate(key, h, 2.0, 64.0, 100 + n + r);
    }
  }
  ASSERT_EQ(s.stats().evictions, 0u);
  ASSERT_EQ(b.stats().evictions, 0u);
  ASSERT_EQ(s.stats().rejected, 0u);
  ASSERT_EQ(b.stats().rejected, 0u);
  EXPECT_EQ(s.occupancy(), kFlows);
  EXPECT_EQ(b.occupancy(), kFlows);
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const auto key = key_n(n);
    const auto h = key.hash(seed);
    const auto es = s.lookup(key, h, 2'000);
    const auto eb = b.lookup(key, h, 2'000);
    ASSERT_TRUE(es.has_value()) << "scalar lost flow " << n;
    ASSERT_TRUE(eb.has_value()) << "bucketed lost flow " << n;
    EXPECT_DOUBLE_EQ(es->packets, eb->packets) << "flow " << n;
    EXPECT_DOUBLE_EQ(es->bytes, eb->bytes) << "flow " << n;
    EXPECT_EQ(es->last_update_ns, eb->last_update_ns) << "flow " << n;
  }
}

// Idle-timeout expiry + interleaved partial sweeps. Partial sweep_expired()
// calls walk slots_ linearly, and the same flow lives in DIFFERENT slots in
// the two layouts — so which expired entry is physically reclaimed first
// differs. The contract is that the LIVE view (live_entries, lookups) never
// diverges at any interleaving point, and that occupancy reconverges after
// a full sweep.
TEST(WsafLayoutEquivalence, SweepInterleavingsNeverDivergeTheLiveView) {
  auto cfg_s = table_config(WsafLayout::kScalarProbe, 8, 16);
  cfg_s.idle_timeout_ns = 1'000;
  auto cfg_b = cfg_s;
  cfg_b.layout = WsafLayout::kBucketed;
  WsafTable s{cfg_s};
  WsafTable b{cfg_b};
  const auto seed = cfg_s.seed;

  // 150 flows with staggered last-update times: flow n last touched at
  // t = 100 + 2n, so advancing time expires them oldest-first. The fill
  // spans 100..398 — well under the 1000ns timeout, so nothing expires
  // mid-fill and both tables start the sweep phase fully populated.
  constexpr std::uint32_t kFlows = 150;
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const auto key = key_n(n);
    const auto h = key.hash(seed);
    s.accumulate(key, h, 1.0, 64.0, 100 + 2 * n);
    b.accumulate(key, h, 1.0, 64.0, 100 + 2 * n);
  }
  ASSERT_EQ(s.occupancy(), kFlows);
  ASSERT_EQ(b.occupancy(), kFlows);

  // Advance "now" in steps; at each step run a few small partial sweeps in
  // both tables and compare the live view (sets must match even while the
  // physical reclaim order differs).
  for (const std::uint64_t now : {700u, 1'300u, 1'650u, 2'000u}) {
    for (int burst = 0; burst < 3; ++burst) {
      s.sweep_expired(now, /*max_slots=*/7);
      b.sweep_expired(now, /*max_slots=*/7);
      EXPECT_EQ(logical_entries(s, now), logical_entries(b, now))
          << "now=" << now << " burst=" << burst;
    }
    // Spot-check lookups straddling the expiry boundary at this instant.
    for (const std::uint32_t n : {0u, 25u, 60u, 100u, 149u}) {
      const auto key = key_n(n);
      const auto h = key.hash(seed);
      EXPECT_EQ(s.lookup(key, h, now).has_value(),
                b.lookup(key, h, now).has_value())
          << "now=" << now << " flow " << n;
    }
  }

  // Full sweep: physical state reconverges, not just the live view.
  s.sweep_expired(2'000, 0);
  b.sweep_expired(2'000, 0);
  EXPECT_EQ(s.occupancy(), b.occupancy());
  EXPECT_EQ(s.stats().gc_swept + s.stats().gc_reclaims,
            b.stats().gc_swept + b.stats().gc_reclaims);
  EXPECT_EQ(logical_entries(s, 2'000), logical_entries(b, 2'000));

  // Expired flows must be re-insertable in both layouts (bucketed: sweep
  // must have cleared the tag bitmaps or these inserts collide).
  for (const std::uint32_t n : {0u, 1u, 2u}) {
    const auto key = key_n(n);
    const auto h = key.hash(seed);
    s.accumulate(key, h, 5.0, 64.0, 2'100);
    b.accumulate(key, h, 5.0, 64.0, 2'100);
    const auto es = s.lookup(key, h, 2'100);
    const auto eb = b.lookup(key, h, 2'100);
    ASSERT_TRUE(es && eb) << "flow " << n;
    EXPECT_DOUBLE_EQ(es->packets, 5.0);
    EXPECT_DOUBLE_EQ(eb->packets, 5.0);
  }
}

}  // namespace
}  // namespace instameasure::core
