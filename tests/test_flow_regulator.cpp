#include "core/flow_regulator.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.h"
#include "util/zipf.h"

namespace instameasure::core {
namespace {

FlowRegulatorConfig paper_config() {
  FlowRegulatorConfig config;
  config.l1_memory_bytes = 32 * 1024;  // paper default: 128KB total
  config.vv_bits = 8;
  return config;
}

TEST(FlowRegulatorConfig, PaperMemoryAccounting) {
  const auto config = paper_config();
  EXPECT_EQ(config.banks(), 3u) << "8-bit vv yields three L2 banks";
  EXPECT_EQ(config.total_memory_bytes(), 128u * 1024u)
      << "32KB L1 -> 128KB total, as in the paper";
}

TEST(FlowRegulator, EmitsEventsForElephantFlow) {
  FlowRegulator fr{paper_config()};
  std::uint64_t events = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (fr.offer(0xE1E1E1, 1000)) ++events;
  }
  EXPECT_GT(events, 0u);
  EXPECT_EQ(fr.l2_saturations(), events);
  EXPECT_GT(fr.l1_saturations(), fr.l2_saturations())
      << "L1 saturates more often than L2 by design";
}

TEST(FlowRegulator, RetentionCapacityAroundHundredPackets) {
  // Paper Fig 8a: the 16-bit (8+8) two-layer design retains ~100 packets
  // per WSAF insertion.
  FlowRegulator fr{paper_config()};
  for (int i = 0; i < 2'000'000; ++i) (void)fr.offer(0xABCD, 500);
  EXPECT_GT(fr.mean_packets_per_event(), 50.0);
  EXPECT_LT(fr.mean_packets_per_event(), 200.0);
}

TEST(FlowRegulator, RegulationRateAboutOnePercent) {
  // Paper §III.A / Fig 7: ~1.02% regulation for a saturating stream.
  FlowRegulator fr{paper_config()};
  for (int i = 0; i < 2'000'000; ++i) (void)fr.offer(0x1234, 500);
  EXPECT_GT(fr.regulation_rate(), 0.003);
  EXPECT_LT(fr.regulation_rate(), 0.03);
}

TEST(FlowRegulator, SingleFlowEstimateIsAccurate) {
  FlowRegulator fr{paper_config()};
  constexpr std::uint64_t kPackets = 1'000'000;
  double estimate = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    if (const auto event = fr.offer(0xFEED, 800)) {
      estimate += event->est_packets;
    }
  }
  estimate += fr.residual_packets(0xFEED);
  EXPECT_NEAR(estimate / static_cast<double>(kPackets), 1.0, 0.05);
}

TEST(FlowRegulator, ByteEstimateTracksFixedPacketSize) {
  FlowRegulator fr{paper_config()};
  constexpr std::uint64_t kPackets = 500'000;
  constexpr std::uint16_t kLen = 750;
  double est_bytes = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    if (const auto event = fr.offer(0xBEEF, kLen)) {
      est_bytes += event->est_bytes;
    }
  }
  est_bytes += fr.residual_bytes(0xBEEF);
  const double truth = static_cast<double>(kPackets) * kLen;
  EXPECT_NEAR(est_bytes / truth, 1.0, 0.05);
}

TEST(FlowRegulator, MiceFlowsAreRetainedNotEmitted) {
  FlowRegulator fr{paper_config()};
  util::SplitMix64 hashes{21};
  std::uint64_t events = 0;
  constexpr int kFlows = 30'000;
  for (int f = 0; f < kFlows; ++f) {
    const auto h = hashes();
    for (int i = 0; i < 3; ++i) {
      if (fr.offer(h, 100)) ++events;
    }
  }
  // 3-packet mice need ~100 packets to traverse both layers; with moderate
  // sharing noise almost none should emit.
  EXPECT_LT(static_cast<double>(events) / kFlows, 0.01);
}

TEST(FlowRegulator, ResidualSeesMiceFlows) {
  FlowRegulator fr{paper_config()};
  const std::uint64_t flow = 0x77;
  for (int i = 0; i < 5; ++i) (void)fr.offer(flow, 200);
  const double residual = fr.residual_packets(flow);
  EXPECT_GT(residual, 1.0);
  EXPECT_LT(residual, 30.0);
}

TEST(FlowRegulator, ResidualZeroForUnseenFlow) {
  FlowRegulator fr{paper_config()};
  EXPECT_DOUBLE_EQ(fr.residual_packets(0xDEAD), 0.0);
  EXPECT_DOUBLE_EQ(fr.residual_bytes(0xDEAD), 0.0);
}

TEST(FlowRegulator, ResetRestoresInitialState) {
  FlowRegulator fr{paper_config()};
  for (int i = 0; i < 10'000; ++i) (void)fr.offer(0x42, 100);
  fr.reset();
  EXPECT_EQ(fr.packets(), 0u);
  EXPECT_EQ(fr.l1_saturations(), 0u);
  EXPECT_EQ(fr.l2_saturations(), 0u);
  EXPECT_DOUBLE_EQ(fr.residual_packets(0x42), 0.0);
}

TEST(FlowRegulator, TwoLayerRegulatesBetterThanOneLayerRcc) {
  // The paper's core claim (Fig 7): two layers cut the WSAF insertion rate
  // by roughly an order of magnitude versus single-layer RCC.
  FlowRegulator fr{paper_config()};
  sketch::RccSketch rcc{paper_config().layer_config()};
  const std::uint64_t flow = 0x5151;
  const auto layout = rcc.layout_of(flow);
  for (int i = 0; i < 1'000'000; ++i) {
    (void)fr.offer(flow, 100);
    (void)rcc.encode(layout);
  }
  EXPECT_LT(fr.regulation_rate(), rcc.regulation_rate() / 5.0);
}

class FrVectorSizeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FrVectorSizeTest, AccuracyHoldsAcrossVectorSizes) {
  FlowRegulatorConfig config = paper_config();
  config.vv_bits = GetParam();
  FlowRegulator fr{config};
  constexpr std::uint64_t kPackets = 500'000;
  double estimate = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    if (const auto event = fr.offer(0xCAFE, 100)) {
      estimate += event->est_packets;
    }
  }
  estimate += fr.residual_packets(0xCAFE);
  // Paper Fig 8c: accuracy degrades for tiny vectors; 4-bit layers are the
  // known-bad case, so tolerate more error there.
  const double tolerance = GetParam() <= 4 ? 0.25 : 0.08;
  EXPECT_NEAR(estimate / static_cast<double>(kPackets), 1.0, tolerance);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrVectorSizeTest,
                         ::testing::Values(4u, 8u, 16u, 32u));

class FrFlowSizeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrFlowSizeTest, EstimateUnbiasedAcrossFlowSizes) {
  // Property: emitted events + residual track the true count for flows
  // spanning three orders of magnitude. Small flows carry more relative
  // noise (they live mostly in the residual), so tolerance scales down
  // with size.
  const std::uint64_t size = GetParam();
  FlowRegulator fr{paper_config()};
  double estimate = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    if (const auto event = fr.offer(0xF00D + size, 400)) {
      estimate += event->est_packets;
    }
  }
  estimate += fr.residual_packets(0xF00D + size);
  const double tolerance = size >= 100'000 ? 0.05
                           : size >= 10'000 ? 0.10
                           : size >= 1'000  ? 0.25
                                            : 0.60;
  EXPECT_NEAR(estimate / static_cast<double>(size), 1.0, tolerance)
      << "flow size " << size;
}

INSTANTIATE_TEST_SUITE_P(FlowSizes, FrFlowSizeTest,
                         ::testing::Values(100u, 1'000u, 10'000u, 100'000u,
                                           1'000'000u));

// ---- layout memo vs a memo-free reference ----
//
// FlowRegulator::memo_entry serves layouts from a memo. The batch-equivalence
// suite cannot catch a wrong memo (both of its sides go through it), so this
// reference rebuilds the regulator from its parts, seeded as the constructor
// seeds them, and derives every packet's layout with sketch::make_layout.

class ReferenceRegulator {
 public:
  explicit ReferenceRegulator(const FlowRegulatorConfig& config)
      : config_(config), l1_(config.layer_config()) {
    auto bank_config = config.layer_config();
    for (unsigned b = 0; b < config.banks(); ++b) {
      bank_config.seed = config.seed + 0x9e37 * (b + 1);
      l2_.emplace_back(bank_config);
    }
  }

  std::optional<SaturationEvent> offer(std::uint64_t flow_hash,
                                       std::uint16_t wire_len) {
    const auto layout = sketch::make_layout(flow_hash, l1_.n_words(),
                                            config_.vv_bits, config_.seed);
    const auto l1_noise = l1_.encode(layout);
    if (!l1_noise) return std::nullopt;
    ++l1_saturations_;
    auto& bank = l2_[*l1_noise - config_.noise_min];
    const auto l2_noise = bank.encode(layout);
    if (!l2_noise) return std::nullopt;
    ++l2_saturations_;
    SaturationEvent event;
    event.est_packets = l1_.unit(*l1_noise) * bank.unit(*l2_noise);
    event.est_bytes = event.est_packets * static_cast<double>(wire_len);
    return event;
  }

  void reset() {
    l1_.reset();
    for (auto& bank : l2_) bank.reset();
    l1_saturations_ = 0;
    l2_saturations_ = 0;
  }

  std::uint64_t l1_saturations() const { return l1_saturations_; }
  std::uint64_t l2_saturations() const { return l2_saturations_; }

 private:
  FlowRegulatorConfig config_;
  sketch::RccSketch l1_;
  std::vector<sketch::RccSketch> l2_;
  std::uint64_t l1_saturations_ = 0;
  std::uint64_t l2_saturations_ = 0;
};

/// Offer `hashes` (packet i carries 40 + i % 1460 bytes) to both sides,
/// resetting both before packet `reset_at`, and require the same event
/// from every packet and the same saturation counts at the end.
void expect_matches_reference(const FlowRegulatorConfig& config,
                              const std::vector<std::uint64_t>& hashes,
                              std::size_t reset_at = SIZE_MAX) {
  FlowRegulator fr{config};
  ReferenceRegulator ref{config};
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    if (i == reset_at) {
      EXPECT_EQ(fr.l1_saturations(), ref.l1_saturations());
      EXPECT_EQ(fr.l2_saturations(), ref.l2_saturations());
      fr.reset();
      ref.reset();
    }
    const auto len = static_cast<std::uint16_t>(40 + i % 1460);
    const auto got = fr.offer(hashes[i], len);
    const auto want = ref.offer(hashes[i], len);
    ASSERT_EQ(got.has_value(), want.has_value()) << "packet " << i;
    if (!got) continue;
    ++events;
    ASSERT_EQ(got->est_packets, want->est_packets) << "packet " << i;
    ASSERT_EQ(got->est_bytes, want->est_bytes) << "packet " << i;
  }
  EXPECT_EQ(fr.l1_saturations(), ref.l1_saturations());
  EXPECT_EQ(fr.l2_saturations(), ref.l2_saturations());
  EXPECT_GT(events, 0u) << "stream too short to reach the L2 layer";
}

/// Small sketch so a short stream saturates both layers often.
FlowRegulatorConfig memo_test_config(unsigned vv_bits) {
  FlowRegulatorConfig config;
  config.l1_memory_bytes = 2 * 1024;
  config.vv_bits = vv_bits;
  return config;
}

/// Zipf(1.1) over 20k flows: hot flows hit the memo, the tail misses.
std::vector<std::uint64_t> zipf_hashes(std::size_t packets) {
  util::Xoshiro256ss rng{17};
  const util::ZipfDistribution zipf{20'000, 1.1};
  std::vector<std::uint64_t> hashes(packets);
  for (auto& h : hashes) h = util::mix64(zipf(rng) * 0x9e3779b97f4a7c15ULL);
  return hashes;
}

/// Flows that share their top kLayoutMemoBits bits (one memo entry), one
/// packet each in turn, so every packet evicts the previous flow's layout.
/// Flow hash 0 shares entry 0 with the first group.
std::vector<std::uint64_t> colliding_hashes(std::size_t packets) {
  constexpr unsigned kLow = 64 - kLayoutMemoBits;
  const std::vector<std::uint64_t> flows = {
      0,
      1,
      (std::uint64_t{1} << kLow) - 1,
      (std::uint64_t{0xabc} << kLow) | 0x1234,
      (std::uint64_t{0xabc} << kLow) | 0x5678,
      (std::uint64_t{0xabc} << kLow) | 0x9abc,
  };
  std::vector<std::uint64_t> hashes(packets);
  for (std::size_t i = 0; i < packets; ++i) hashes[i] = flows[i % flows.size()];
  return hashes;
}

class FlowRegulatorLayoutMemo : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowRegulatorLayoutMemo, ZipfStreamMatchesReference) {
  expect_matches_reference(memo_test_config(GetParam()), zipf_hashes(200'000));
}

TEST_P(FlowRegulatorLayoutMemo, CollidingFlowsMatchReference) {
  expect_matches_reference(memo_test_config(GetParam()),
                           colliding_hashes(120'000));
}

TEST_P(FlowRegulatorLayoutMemo, FlowHashZeroMatchesReference) {
  // Hash 0 alone hits the initial entry from its first packet on.
  expect_matches_reference(memo_test_config(GetParam()),
                           std::vector<std::uint64_t>(50'000, 0));
}

TEST_P(FlowRegulatorLayoutMemo, ResetMidStreamMatchesReference) {
  // reset() keeps the memo but clears the layers; the layouts it keeps must
  // still be right for the counts that restart.
  auto hashes = zipf_hashes(100'000);
  const auto colliding = colliding_hashes(60'000);
  hashes.insert(hashes.end(), colliding.begin(), colliding.end());
  expect_matches_reference(memo_test_config(GetParam()), hashes, 80'000);
}

INSTANTIATE_TEST_SUITE_P(VectorSizes, FlowRegulatorLayoutMemo,
                         ::testing::Values(2u, 8u, 16u, 32u));

TEST(FlowRegulator, MemoryBytesCountsTheLayoutMemo) {
  const FlowRegulator fr{paper_config()};
  EXPECT_EQ(fr.config().total_memory_bytes(), 128u * 1024u)
      << "the paper's budget counts the sketch layers only";
  EXPECT_GE(fr.memory_bytes(), fr.config().total_memory_bytes() +
                                   (std::size_t{1} << kLayoutMemoBits) *
                                       (sizeof(std::uint64_t) +
                                        sizeof(sketch::VvLayout)));
}

}  // namespace
}  // namespace instameasure::core
