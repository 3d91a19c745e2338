// Differential batch-vs-scalar suite: the contract that makes the batched
// stage split shippable. For every trace × batch size below,
// process_batch() must leave the engine in a state BIT-IDENTICAL to scalar
// process() calls — WSAF snapshot bytes, detection lists, regulator and
// table counters, and per-flow query results. Any reordering or
// double-count the batch path introduced would surface here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/instameasure.h"
#include "trace/generator.h"

namespace instameasure::core {
namespace {

EngineConfig test_config() {
  EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  config.heavy_hitter.packet_threshold = 5'000;
  config.heavy_hitter.byte_threshold = 4'000'000;
  return config;
}

trace::Trace zipf_trace(std::uint64_t seed) {
  trace::TraceConfig config;
  config.name = "equivalence-" + std::to_string(seed);
  config.duration_s = 1.0;
  config.tiers = {{3, 15'000, 30'000}, {25, 1'000, 4'000}};
  config.mice = {8'000, 1.1, 40};
  config.seed = seed;
  return trace::generate(config);
}

[[nodiscard]] std::string snapshot_bytes(const InstaMeasure& engine,
                                         const std::string& tag) {
  const std::string path = testing::TempDir() + "wsaf-" + tag + ".bin";
  engine.wsaf().save(path);
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Sample of distinct flow keys for exact per-flow query comparison.
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

void expect_equivalent(const InstaMeasure& scalar, const InstaMeasure& batch,
                       const trace::Trace& trace, const std::string& tag) {
  SCOPED_TRACE(tag);
  EXPECT_EQ(scalar.packets_processed(), batch.packets_processed());
  EXPECT_EQ(scalar.regulator().l1_saturations(),
            batch.regulator().l1_saturations());
  EXPECT_EQ(scalar.regulator().l2_saturations(),
            batch.regulator().l2_saturations());
  EXPECT_DOUBLE_EQ(scalar.regulator().mean_packets_per_event(),
                   batch.regulator().mean_packets_per_event());

  const auto& ws = scalar.wsaf().stats();
  const auto& wb = batch.wsaf().stats();
  EXPECT_EQ(ws.accumulates, wb.accumulates);
  EXPECT_EQ(ws.inserts, wb.inserts);
  EXPECT_EQ(ws.updates, wb.updates);
  EXPECT_EQ(ws.evictions, wb.evictions);
  EXPECT_EQ(ws.gc_reclaims, wb.gc_reclaims);
  EXPECT_EQ(ws.probes, wb.probes);
  EXPECT_EQ(ws.rejected, wb.rejected);
  EXPECT_EQ(scalar.wsaf().occupancy(), batch.wsaf().occupancy());

  // Full in-DRAM working set, bit for bit (slot numbers included).
  EXPECT_EQ(snapshot_bytes(scalar, tag + "-scalar"),
            snapshot_bytes(batch, tag + "-batch"));

  // Detection log: same flows, same instants, same values, same order.
  const auto& ds = scalar.detections();
  const auto& db = batch.detections();
  ASSERT_EQ(ds.size(), db.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds[i].key, db[i].key) << "detection " << i;
    EXPECT_EQ(ds[i].detected_at_ns, db[i].detected_at_ns) << "detection " << i;
    EXPECT_DOUBLE_EQ(ds[i].value_at_detection, db[i].value_at_detection)
        << "detection " << i;
    EXPECT_EQ(ds[i].metric, db[i].metric) << "detection " << i;
  }

  // Per-flow online decode (WSAF record + regulator residual), exactly.
  for (const auto& key : sample_keys(trace)) {
    const auto es = scalar.query(key);
    const auto eb = batch.query(key);
    EXPECT_EQ(es.in_wsaf, eb.in_wsaf) << key.to_string();
    EXPECT_DOUBLE_EQ(es.packets, eb.packets) << key.to_string();
    EXPECT_DOUBLE_EQ(es.bytes, eb.bytes) << key.to_string();
  }
}

[[nodiscard]] InstaMeasure run_scalar(const trace::Trace& trace) {
  InstaMeasure engine{test_config()};
  for (const auto& rec : trace.packets) engine.process(rec);
  return engine;
}

[[nodiscard]] InstaMeasure run_batched(const trace::Trace& trace,
                                       std::size_t batch_size) {
  InstaMeasure engine{test_config()};
  const std::span<const netio::PacketRecord> all{trace.packets};
  for (std::size_t off = 0; off < all.size(); off += batch_size) {
    engine.process_batch(all.subspan(off, std::min(batch_size,
                                                   all.size() - off)));
  }
  return engine;
}

// 4 randomized Zipf traces × 6 batch sizes = 24 differential comparisons,
// covering batch=1 (degenerate), sub-chunk, chunk-aligned, multi-chunk, and
// sizes that force trailing partial batches both at the caller slice and
// the internal 64-packet chunking.
TEST(BatchEquivalence, ZipfTracesAcrossSeedsAndBatchSizes) {
  constexpr std::size_t kBatchSizes[] = {1, 3, 8, 32, 64, 200};
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const auto trace = zipf_trace(seed);
    const auto scalar = run_scalar(trace);
    ASSERT_FALSE(scalar.detections().empty())
        << "trace seed " << seed
        << " must raise detections or the differential test has no teeth";
    for (const auto batch_size : kBatchSizes) {
      const auto batch = run_batched(trace, batch_size);
      expect_equivalent(scalar, batch, trace,
                        "seed=" + std::to_string(seed) +
                            " batch=" + std::to_string(batch_size));
    }
  }
}

// A single elephant saturating L2 repeatedly mid-batch: every event's
// accumulate must land between the right neighbors in sequence, including
// the detection threshold crossing.
TEST(BatchEquivalence, SingleFlowBurstSaturatesMidBatch) {
  trace::Trace trace;
  trace.name = "single-flow-burst";
  const netio::FlowKey key{0xc0a80101, 0x08080808, 40000, 443, 6};
  trace.packets.reserve(120'000);
  for (std::uint64_t i = 0; i < 120'000; ++i) {
    trace.packets.push_back({i * 100, key, 900});
  }
  const auto scalar = run_scalar(trace);
  ASSERT_FALSE(scalar.detections().empty());
  for (const auto batch_size : {1u, 8u, 64u, 97u}) {
    const auto batch = run_batched(trace, batch_size);
    expect_equivalent(scalar, batch, trace,
                      "single-flow batch=" + std::to_string(batch_size));
  }
}

// Two flows on one layout-memo entry, alternating inside every 64-packet
// chunk: stage 1 keeps a pointer to the entry per packet, and each packet's
// miss overwrites the entry the previous one found, so stage 2 must notice
// the other flow's tag and derive its own layout again.
TEST(BatchEquivalence, MemoCollidingFlowsInterleavedInOneChunk) {
  const auto seed = test_config().seed;
  const auto memo_index = [&](const netio::FlowKey& key) {
    return key.hash(seed) >> (64 - kLayoutMemoBits);
  };
  const netio::FlowKey a{0x0a000001, 0x0a000002, 40000, 443, 6};
  netio::FlowKey b = a;
  do {
    ++b.src_port;
  } while (memo_index(b) != memo_index(a));
  ASSERT_NE(a.hash(seed), b.hash(seed));

  for (const bool a_first : {true, false}) {
    const auto& first = a_first ? a : b;
    const auto& second = a_first ? b : a;
    trace::Trace trace;
    trace.name = a_first ? "memo-collision-ab" : "memo-collision-ba";
    for (std::uint64_t i = 0; i < 64 * 2'000; ++i) {
      trace.packets.push_back({i * 100, i % 2 == 0 ? first : second, 700});
    }
    const auto scalar = run_scalar(trace);
    ASSERT_FALSE(scalar.detections().empty());
    expect_equivalent(scalar, run_batched(trace, 64), trace, trace.name);
  }
}

// Randomly ragged spans (1..150 packets) partitioning the trace: batch
// boundaries at arbitrary offsets must be invisible.
TEST(BatchEquivalence, RaggedSpanPartition) {
  const auto trace = zipf_trace(55);
  const auto scalar = run_scalar(trace);
  std::mt19937_64 rng{777};
  std::uniform_int_distribution<std::size_t> span_len{1, 150};
  InstaMeasure engine{test_config()};
  const std::span<const netio::PacketRecord> all{trace.packets};
  std::size_t off = 0;
  while (off < all.size()) {
    const auto n = std::min(span_len(rng), all.size() - off);
    engine.process_batch(all.subspan(off, n));
    off += n;
  }
  expect_equivalent(scalar, engine, trace, "ragged-spans");
}

// The pointer-gather overload (the MultiCoreEngine worker shape) must match
// the value-span overload exactly.
TEST(BatchEquivalence, PointerGatherOverloadMatches) {
  const auto trace = zipf_trace(66);
  const auto by_value = run_batched(trace, 64);
  InstaMeasure by_pointer{test_config()};
  std::vector<const netio::PacketRecord*> ptrs;
  ptrs.reserve(trace.packets.size());
  for (const auto& rec : trace.packets) ptrs.push_back(&rec);
  const std::span<const netio::PacketRecord* const> all{ptrs};
  for (std::size_t off = 0; off < all.size(); off += 64) {
    by_pointer.process_batch(all.subspan(off, std::min<std::size_t>(
                                                  64, all.size() - off)));
  }
  expect_equivalent(by_value, by_pointer, trace, "pointer-gather");
}

}  // namespace
}  // namespace instameasure::core
