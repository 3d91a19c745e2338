#include "core/instameasure.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace instameasure::core {
namespace {

EngineConfig small_engine() {
  EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  return config;
}

netio::PacketRecord packet(const netio::FlowKey& key, std::uint64_t ts_ns,
                           std::uint16_t len = 500) {
  return netio::PacketRecord{ts_ns, key, len};
}

netio::FlowKey key_n(std::uint32_t n) {
  return netio::FlowKey{n * 2654435761u, ~n, static_cast<std::uint16_t>(n),
                        443, 6};
}

TEST(InstaMeasure, ElephantFlowLandsInWsaf) {
  InstaMeasure engine{small_engine()};
  const auto key = key_n(1);
  for (int i = 0; i < 100'000; ++i) {
    engine.process(packet(key, static_cast<std::uint64_t>(i) * 1000));
  }
  const auto est = engine.query(key);
  EXPECT_TRUE(est.in_wsaf);
  EXPECT_NEAR(est.packets / 100'000.0, 1.0, 0.08);
}

TEST(InstaMeasure, ByteCountTracksTruth) {
  InstaMeasure engine{small_engine()};
  const auto key = key_n(2);
  constexpr std::uint16_t kLen = 1200;
  constexpr int kPackets = 200'000;
  for (int i = 0; i < kPackets; ++i) {
    engine.process(packet(key, static_cast<std::uint64_t>(i) * 1000, kLen));
  }
  const auto est = engine.query(key);
  const double truth = static_cast<double>(kPackets) * kLen;
  EXPECT_NEAR(est.bytes / truth, 1.0, 0.08);
}

TEST(InstaMeasure, MiceFlowVisibleViaResidual) {
  InstaMeasure engine{small_engine()};
  const auto key = key_n(3);
  for (int i = 0; i < 4; ++i) {
    engine.process(packet(key, static_cast<std::uint64_t>(i)));
  }
  const auto est = engine.query(key);
  EXPECT_FALSE(est.in_wsaf) << "4 packets must not traverse two layers";
  EXPECT_GT(est.packets, 0.5);
  EXPECT_LT(est.packets, 40.0);
}

TEST(InstaMeasure, UnseenFlowEstimatesZero) {
  InstaMeasure engine{small_engine()};
  const auto est = engine.query(key_n(4));
  EXPECT_FALSE(est.in_wsaf);
  EXPECT_DOUBLE_EQ(est.packets, 0.0);
}

TEST(InstaMeasure, HeavyHitterDetectedOnce) {
  auto config = small_engine();
  config.heavy_hitter.packet_threshold = 1000;
  InstaMeasure engine{config};
  const auto key = key_n(5);
  for (int i = 0; i < 50'000; ++i) {
    engine.process(packet(key, static_cast<std::uint64_t>(i) * 1000));
  }
  std::size_t pkt_detections = 0;
  for (const auto& det : engine.detections()) {
    if (det.metric == TopKMetric::kPackets && det.key == key) ++pkt_detections;
  }
  EXPECT_EQ(pkt_detections, 1u) << "each flow is reported exactly once";
  ASSERT_FALSE(engine.detections().empty());
  EXPECT_GE(engine.detections().front().value_at_detection, 1000.0);
}

TEST(InstaMeasure, HeavyHitterDetectionTimeIsPlausible) {
  auto config = small_engine();
  config.heavy_hitter.packet_threshold = 5000;
  InstaMeasure engine{config};
  const auto key = key_n(6);
  // 1000 packets per "ms" of trace time.
  std::uint64_t crossed_at = 0;
  for (int i = 0; i < 50'000; ++i) {
    const auto ts = static_cast<std::uint64_t>(i) * 1'000'000ULL / 1000;
    engine.process(packet(key, ts));
    if (i == 5000) crossed_at = ts;
  }
  ASSERT_FALSE(engine.detections().empty());
  const auto& det = engine.detections().front();
  EXPECT_GE(det.detected_at_ns, crossed_at * 95 / 100)
      << "detection cannot precede the true crossing by much";
  // Saturation-based decoding lags by at most ~the retention capacity
  // (~100 packets = 0.1 ms here) plus estimation noise.
  EXPECT_LE(det.detected_at_ns, crossed_at + 3'000'000ULL);
}

TEST(InstaMeasure, ByteHeavyHitterDetection) {
  auto config = small_engine();
  config.heavy_hitter.byte_threshold = 1'000'000;
  InstaMeasure engine{config};
  const auto key = key_n(7);
  for (int i = 0; i < 20'000; ++i) {
    engine.process(packet(key, static_cast<std::uint64_t>(i) * 1000, 1400));
  }
  bool found = false;
  for (const auto& det : engine.detections()) {
    if (det.metric == TopKMetric::kBytes && det.key == key) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(InstaMeasure, TopKReflectsFlowSizes) {
  InstaMeasure engine{small_engine()};
  // Three elephants of clearly distinct sizes + mice noise.
  const auto big = key_n(10);
  const auto mid = key_n(11);
  const auto small = key_n(12);
  util::SplitMix64 rng{3};
  std::uint64_t ts = 0;
  for (int i = 0; i < 60'000; ++i) {
    engine.process(packet(big, ts++));
    if (i % 2 == 0) engine.process(packet(mid, ts++));
    if (i % 6 == 0) engine.process(packet(small, ts++));
    if (i % 3 == 0) {
      engine.process(packet(key_n(static_cast<std::uint32_t>(rng())), ts++));
    }
  }
  const auto top = engine.top_k_packets(3);
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(top[0].key, big);
  EXPECT_EQ(top[1].key, mid);
  EXPECT_EQ(top[2].key, small);
}

TEST(InstaMeasure, MemoryAccountingMatchesPaper) {
  EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 20;
  const InstaMeasure engine{config};
  // 128KB sketch + 33MB WSAF (paper §IV.D).
  EXPECT_EQ(engine.memory_bytes(), 128u * 1024u + (1u << 20) * 33ull);
}

TEST(InstaMeasure, ResetRestoresCleanState) {
  auto config = small_engine();
  config.heavy_hitter.packet_threshold = 100;
  InstaMeasure engine{config};
  const auto key = key_n(13);
  for (int i = 0; i < 10'000; ++i) {
    engine.process(packet(key, static_cast<std::uint64_t>(i)));
  }
  engine.reset();
  EXPECT_EQ(engine.packets_processed(), 0u);
  EXPECT_TRUE(engine.detections().empty());
  EXPECT_DOUBLE_EQ(engine.query(key).packets, 0.0);
  // The flow can be detected again after reset.
  for (int i = 0; i < 10'000; ++i) {
    engine.process(packet(key, static_cast<std::uint64_t>(i)));
  }
  EXPECT_FALSE(engine.detections().empty());
}

TEST(InstaMeasure, ManyFlowsModerateError) {
  // A medium population end to end: per-flow relative error for 5K-packet
  // flows should be within ~25% with a small 128KB regulator.
  InstaMeasure engine{small_engine()};
  constexpr int kFlows = 50;
  constexpr int kPackets = 5000;
  std::uint64_t ts = 0;
  for (int i = 0; i < kPackets; ++i) {
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      engine.process(packet(key_n(100 + f), ts++));
    }
  }
  double total_rel_err = 0;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    const auto est = engine.query(key_n(100 + f));
    total_rel_err += std::abs(est.packets - kPackets) / kPackets;
  }
  EXPECT_LT(total_rel_err / kFlows, 0.25);
}

}  // namespace
}  // namespace instameasure::core
