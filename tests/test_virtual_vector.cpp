#include "sketch/virtual_vector.h"

#include <gtest/gtest.h>

#include <set>

namespace instameasure::sketch {
namespace {

TEST(VvLayout, Deterministic) {
  const auto a = make_layout(0xABCDEF, 1024, 8);
  const auto b = make_layout(0xABCDEF, 1024, 8);
  EXPECT_EQ(a.word_index, b.word_index);
  EXPECT_EQ(a.mask, b.mask);
  EXPECT_EQ(a.bits, b.bits);
}

TEST(VvLayout, SeedChangesLayout) {
  const auto a = make_layout(0xABCDEF, 1024, 8, 1);
  const auto b = make_layout(0xABCDEF, 1024, 8, 2);
  EXPECT_TRUE(a.word_index != b.word_index || a.mask != b.mask);
}

TEST(VvLayout, WordIndexInRange) {
  for (std::uint64_t h = 0; h < 5000; ++h) {
    const auto layout = make_layout(h * 0x9e3779b9ULL, 37, 8);
    EXPECT_LT(layout.word_index, 37u);
  }
}

class VvBitsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(VvBitsTest, ExactlyBDistinctPositions) {
  const unsigned b = GetParam();
  for (std::uint64_t h = 1; h <= 2000; ++h) {
    const auto layout = make_layout(h * 0x123456789ULL, 64, b);
    EXPECT_EQ(layout.bits, b);
    EXPECT_EQ(static_cast<unsigned>(std::popcount(layout.mask)), b)
        << "mask must contain exactly b distinct bits";
    std::set<unsigned> positions;
    for (unsigned i = 0; i < b; ++i) {
      EXPECT_LT(layout.pos[i], kWordBits);
      EXPECT_TRUE(layout.mask & (1ULL << layout.pos[i]));
      positions.insert(layout.pos[i]);
    }
    EXPECT_EQ(positions.size(), b) << "positions must be distinct";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, VvBitsTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u));

TEST(VvLayout, ZerosInCountsUnsetFlowBits) {
  const auto layout = make_layout(42, 16, 8);
  EXPECT_EQ(layout.zeros_in(0), 8u);
  EXPECT_EQ(layout.zeros_in(layout.mask), 0u);
  EXPECT_EQ(layout.zeros_in(~layout.mask), 8u)
      << "foreign bits must not count";
  // Set exactly one of the flow's bits.
  const std::uint64_t one = 1ULL << layout.pos[0];
  EXPECT_EQ(layout.zeros_in(one), 7u);
}

TEST(VvLayout, PositionsSpreadAcrossWord) {
  // Aggregated over many flows, every bit of the word should be usable.
  std::set<unsigned> seen;
  for (std::uint64_t h = 1; h <= 3000; ++h) {
    const auto layout = make_layout(h * 0xABCDULL, 8, 8);
    for (unsigned i = 0; i < 8; ++i) seen.insert(layout.pos[i]);
  }
  EXPECT_EQ(seen.size(), kWordBits);
}

TEST(VvLayout, FullWordVectorIsAllOnes) {
  const auto layout = make_layout(7, 4, 64);
  EXPECT_EQ(layout.mask, ~0ULL);
}

// ---- branch-free probe vs the linear-probe loop ----
//
// make_layout resolves a duplicate draw in one rotate + count-trailing-zeros
// step. This reference keeps the step-by-step probe it replaced: walk up
// from the draw, wrapping at the word's end, to the first free position.

VvLayout linear_probe_layout(std::uint64_t flow_hash, std::uint64_t n_words,
                             unsigned vv_bits, std::uint64_t seed) {
  VvLayout layout;
  layout.word_index = layout_word_index(flow_hash, n_words, seed);
  layout.bits = static_cast<std::uint8_t>(vv_bits);
  util::SplitMix64 prng{flow_hash ^ (seed * 0x9e3779b97f4a7c15ULL) ^
                        0xc0ffee123456789ULL};
  for (unsigned i = 0; i < vv_bits; ++i) {
    auto p = static_cast<unsigned>(prng() % kWordBits);
    while (layout.mask & (1ULL << p)) p = (p + 1) % kWordBits;
    layout.pos[i] = static_cast<std::uint8_t>(p);
    layout.mask |= 1ULL << p;
  }
  return layout;
}

class VvLayoutProbeReference : public ::testing::TestWithParam<unsigned> {};

TEST_P(VvLayoutProbeReference, BranchFreeProbeMatchesLinearProbe) {
  const unsigned b = GetParam();
  for (const std::uint64_t seed : {0ULL, 0x1237ULL, 0xfeedfacecafebeefULL}) {
    util::SplitMix64 hashes{seed + b};
    for (int n = 0; n < 100'000; ++n) {
      const std::uint64_t h = hashes();
      const auto got = make_layout(h, 4096, b, seed);
      const auto want = linear_probe_layout(h, 4096, b, seed);
      ASSERT_EQ(got.word_index, want.word_index) << "hash " << h;
      ASSERT_EQ(got.mask, want.mask) << "hash " << h;
      ASSERT_EQ(got.bits, want.bits);
      // Position order decides which bit each draw slot sets, so it is
      // part of the layout, not just the mask.
      ASSERT_EQ(got.pos, want.pos) << "hash " << h << ", seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, VvLayoutProbeReference,
                         ::testing::Values(2u, 8u, 16u, 32u, 63u, 64u));

}  // namespace
}  // namespace instameasure::sketch
