#include "sketch/rcc.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/flow_regulator.h"
#include "util/rng.h"

namespace instameasure::sketch {
namespace {

RccConfig small_config() {
  RccConfig config;
  config.memory_bytes = 64 * 1024;
  config.vv_bits = 8;
  return config;
}

TEST(RccConfig, DerivedNoiseMax) {
  RccConfig config;
  config.vv_bits = 8;
  EXPECT_EQ(config.effective_noise_max(), 3u);
  config.vv_bits = 4;
  EXPECT_EQ(config.effective_noise_max(), 1u);
  config.vv_bits = 16;
  EXPECT_EQ(config.effective_noise_max(), 6u);
  config.noise_max = 2;  // explicit override wins
  EXPECT_EQ(config.effective_noise_max(), 2u);
}

TEST(RccConfig, WordCountFromBytes) {
  RccConfig config;
  config.memory_bytes = 1024;
  EXPECT_EQ(config.n_words(), 128u);
  config.memory_bytes = 0;
  EXPECT_EQ(config.n_words(), 1u) << "degenerate config still usable";
}

/// The sketch must refuse `config` with an invalid_argument naming `what`.
void expect_rejected(const RccConfig& config, const std::string& what) {
  try {
    RccSketch sketch{config};
    ADD_FAILURE() << "accepted an RccConfig with bad " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(what), std::string::npos)
        << e.what();
  }
}

TEST(RccConfig, RejectsVectorBitsOutOfRange) {
  RccConfig config = small_config();
  config.vv_bits = 65;  // make_layout would probe a full word forever
  expect_rejected(config, "vv_bits must be in [2, 64] (got 65)");
  config.vv_bits = 1;
  expect_rejected(config, "vv_bits must be in [2, 64] (got 1)");
}

TEST(RccConfig, RejectsZeroNoiseMin) {
  RccConfig config = small_config();
  config.noise_min = 0;
  expect_rejected(config, "noise_min must be >= 1 (got 0)");
}

TEST(RccConfig, RejectsNoiseMaxBelowNoiseMin) {
  RccConfig config = small_config();
  config.noise_min = 3;
  config.noise_max = 2;
  expect_rejected(config, "noise_max must be >= noise_min (got noise_max 2");
  config.noise_max = 0;  // derived 3b/8 = 1 for b = 4
  config.vv_bits = 4;
  expect_rejected(config, "noise_max must be >= noise_min (got noise_max 1");
}

TEST(RccConfig, RejectsNoiseMaxAtVectorBits) {
  RccConfig config = small_config();
  config.noise_max = 8;
  expect_rejected(config, "noise_max must be < vv_bits (got noise_max 8");
}

TEST(RccConfig, RegulatorsRejectInvalidConfigs) {
  // The regulator builds its layers as RccSketches, so it throws before it
  // sizes any bank from a bad config (noise_min > noise_max would underflow
  // FlowRegulatorConfig::banks()).
  core::FlowRegulatorConfig fr;
  fr.noise_min = 4;
  fr.noise_max = 3;
  EXPECT_THROW(core::FlowRegulator{fr}, std::invalid_argument);
  core::FlowRegulatorConfig wide;
  wide.vv_bits = 65;
  EXPECT_THROW(core::FlowRegulator{wide}, std::invalid_argument);
}

TEST(RccConfig, AcceptsTheBoundaryConfigs) {
  for (const unsigned bits : {2u, 64u}) {
    RccConfig config = small_config();
    config.vv_bits = bits;
    config.noise_max = bits - 1;
    EXPECT_NO_THROW(RccSketch{config}) << "vv_bits " << bits;
  }
}

TEST(RccSketch, SingleFlowSaturatesEventually) {
  RccSketch sketch{small_config()};
  const auto layout = sketch.layout_of(0x1234567);
  bool saturated = false;
  for (int i = 0; i < 1000 && !saturated; ++i) {
    saturated = sketch.encode(layout).has_value();
  }
  EXPECT_TRUE(saturated);
  EXPECT_EQ(sketch.saturations(), 1u);
}

TEST(RccSketch, SaturationRecyclesVector) {
  RccSketch sketch{small_config()};
  const auto layout = sketch.layout_of(0x777);
  for (int i = 0; i < 1000; ++i) {
    if (sketch.encode(layout)) break;
  }
  EXPECT_EQ(sketch.zeros(layout), 8u) << "vector must be cleared on saturation";
  EXPECT_DOUBLE_EQ(sketch.residual_estimate(layout), 0.0);
}

TEST(RccSketch, NoiseLevelsWithinBand) {
  RccSketch sketch{small_config()};
  util::SplitMix64 hashes{5};
  for (int f = 0; f < 500; ++f) {
    const auto layout = sketch.layout_of(hashes());
    for (int i = 0; i < 200; ++i) {
      if (const auto noise = sketch.encode(layout)) {
        EXPECT_GE(*noise, 1u);
        EXPECT_LE(*noise, 3u);
        break;
      }
    }
  }
}

TEST(RccSketch, SingleFlowCountIsUnbiased) {
  // Long-running single flow: sum of per-saturation units + residual must
  // track the true count within a few percent.
  RccSketch sketch{small_config()};
  const auto layout = sketch.layout_of(0xFEEDFACE);
  constexpr std::uint64_t kPackets = 500'000;
  double estimate = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    if (const auto noise = sketch.encode(layout)) {
      estimate += sketch.unit(*noise);
    }
  }
  estimate += sketch.residual_estimate(layout);
  EXPECT_NEAR(estimate / static_cast<double>(kPackets), 1.0, 0.03);
}

TEST(RccSketch, RegulationRateMatchesRetentionCapacity) {
  // Output rate should be roughly 1 / mean-packets-per-saturation for a
  // saturating flow (the Fig 1 quantity).
  RccSketch sketch{small_config()};
  const auto layout = sketch.layout_of(0xABC);
  for (int i = 0; i < 200'000; ++i) (void)sketch.encode(layout);
  const double expected = 1.0 / sketch.mean_packets_per_saturation();
  EXPECT_NEAR(sketch.regulation_rate(), expected, expected * 0.1);
}

TEST(RccSketch, MixedFlowsStatisticsAccumulate) {
  RccSketch sketch{small_config()};
  util::SplitMix64 hashes{11};
  std::uint64_t total = 0;
  for (int f = 0; f < 2000; ++f) {
    const auto layout = sketch.layout_of(hashes());
    for (int i = 0; i < 20; ++i) {
      (void)sketch.encode(layout);
      ++total;
    }
  }
  EXPECT_EQ(sketch.packets_encoded(), total);
  EXPECT_GT(sketch.saturations(), 0u);
  EXPECT_GT(sketch.regulation_rate(), 0.0);
  EXPECT_LT(sketch.regulation_rate(), 1.0);
}

TEST(RccSketch, ResetClearsEverything) {
  RccSketch sketch{small_config()};
  const auto layout = sketch.layout_of(42);
  for (int i = 0; i < 100; ++i) (void)sketch.encode(layout);
  sketch.reset();
  EXPECT_EQ(sketch.packets_encoded(), 0u);
  EXPECT_EQ(sketch.saturations(), 0u);
  EXPECT_EQ(sketch.zeros(layout), 8u);
}

TEST(RccSketch, MiceFlowsRarelySaturate) {
  // 1-2 packet flows should almost never reach the WSAF — the retention
  // property FlowRegulator builds on.
  RccSketch sketch{RccConfig{256 * 1024, 8, 1, 0, 99}};
  util::SplitMix64 hashes{17};
  std::uint64_t saturations = 0;
  constexpr int kFlows = 50'000;
  for (int f = 0; f < kFlows; ++f) {
    const auto layout = sketch.layout_of(hashes());
    if (sketch.encode(layout)) ++saturations;
    if (sketch.encode(layout)) ++saturations;
  }
  EXPECT_LT(static_cast<double>(saturations) / kFlows, 0.02);
}

class RccVectorSizeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RccVectorSizeTest, LargerVectorsSaturateLessOften) {
  const unsigned b = GetParam();
  RccConfig config;
  config.memory_bytes = 64 * 1024;
  config.vv_bits = b;
  RccSketch sketch{config};
  const auto layout = sketch.layout_of(0x5555);
  for (int i = 0; i < 100'000; ++i) (void)sketch.encode(layout);

  RccConfig big = config;
  big.vv_bits = std::min(64u, b * 2);
  RccSketch big_sketch{big};
  const auto big_layout = big_sketch.layout_of(0x5555);
  for (int i = 0; i < 100'000; ++i) (void)big_sketch.encode(big_layout);

  EXPECT_LT(big_sketch.regulation_rate(), sketch.regulation_rate());
}

INSTANTIATE_TEST_SUITE_P(Sizes, RccVectorSizeTest,
                         ::testing::Values(4u, 8u, 16u, 32u));

// ---- branch-free encode vs the branchy original ----
//
// RccSketch::encode folds its collision and noise-band tests into masks and
// writes the word once. This reference keeps the branchy body it replaced,
// verbatim, over its own word array and a draw stream seeded as RccSketch
// seeds its own, so both sides draw the same slot for every packet.

class BranchyRcc {
 public:
  explicit BranchyRcc(const RccConfig& config)
      : noise_min_(config.noise_min),
        noise_max_(config.effective_noise_max()),
        words_(config.n_words(), 0),
        draw_rng_(config.seed ^ 0xdeadbeefcafef00dULL) {}

  std::optional<unsigned> encode(const VvLayout& layout) noexcept {
    ++packets_;
    std::uint64_t& word = words_[layout.word_index];
    const auto slot = static_cast<unsigned>(
        util::reduce_range(draw_rng_(), layout.bits));
    const std::uint64_t bit = 1ULL << layout.pos[slot];

    if (word & bit) {
      // Collision: saturation if the vector is nearly full, silent otherwise.
      const unsigned z = layout.zeros_in(word);
      if (z <= noise_max_) {
        word &= ~layout.mask;  // recycle: clear only this flow's positions
        ++saturations_;
        return z < noise_min_ ? noise_min_ : z;
      }
      return std::nullopt;
    }
    word |= bit;
    return std::nullopt;
  }

  unsigned zeros(const VvLayout& layout) const noexcept {
    return layout.zeros_in(words_[layout.word_index]);
  }
  std::uint64_t packets_encoded() const noexcept { return packets_; }
  std::uint64_t saturations() const noexcept { return saturations_; }

 private:
  unsigned noise_min_;
  unsigned noise_max_;
  std::vector<std::uint64_t> words_;
  util::SplitMix64 draw_rng_;
  std::uint64_t packets_ = 0;
  std::uint64_t saturations_ = 0;
};

/// (vv_bits, noise_min, noise_max); noise_max 0 derives 3b/8.
using EncodeBand = std::tuple<unsigned, unsigned, unsigned>;

class RccSketchBranchyReference : public ::testing::TestWithParam<EncodeBand> {};

TEST_P(RccSketchBranchyReference, EveryStepMatches) {
  const auto [b, noise_min, noise_max] = GetParam();
  for (const std::uint64_t seed : {0x1237ULL, 0xabcdef12345ULL}) {
    RccConfig config;
    config.memory_bytes = 256;  // 32 words: flows share words, bits collide
    config.vv_bits = b;
    config.noise_min = noise_min;
    config.noise_max = noise_max;
    config.seed = seed;
    RccSketch sketch{config};
    BranchyRcc reference{config};

    // 300 flows, skewed so some saturate often and the rest add noise.
    std::vector<VvLayout> layouts;
    util::SplitMix64 flow_hashes{seed};
    for (int f = 0; f < 300; ++f) {
      layouts.push_back(sketch.layout_of(flow_hashes()));
    }
    util::Xoshiro256ss pick{seed + b};
    for (int i = 0; i < 200'000; ++i) {
      const auto r = pick();
      const auto f = (r & 1) != 0 ? r % 8 : r % layouts.size();
      const auto& layout = layouts[f];
      const auto got = sketch.encode(layout);
      const auto want = reference.encode(layout);
      ASSERT_EQ(got, want) << "packet " << i << ", seed " << seed;
      ASSERT_EQ(sketch.zeros(layout), reference.zeros(layout))
          << "packet " << i << ", seed " << seed;
      ASSERT_EQ(sketch.saturations(), reference.saturations())
          << "packet " << i;
    }
    EXPECT_EQ(sketch.packets_encoded(), reference.packets_encoded());
    EXPECT_GT(sketch.saturations(), 0u) << "the band was never reached";
    for (const auto& layout : layouts) {
      EXPECT_EQ(sketch.zeros(layout), reference.zeros(layout));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bands, RccSketchBranchyReference,
    ::testing::Values(EncodeBand{2, 1, 1}, EncodeBand{8, 1, 0},
                      EncodeBand{8, 2, 3}, EncodeBand{8, 3, 5},
                      EncodeBand{16, 1, 0}, EncodeBand{16, 4, 10},
                      EncodeBand{32, 1, 0}, EncodeBand{32, 6, 20},
                      EncodeBand{32, 1, 31}));

}  // namespace
}  // namespace instameasure::sketch
