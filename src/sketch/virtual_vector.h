// Virtual-vector confinement (RCC, Nyang & Shin, IEEE/ACM ToN 2016).
//
// Every flow owns a small virtual vector of `b` bit positions *confined
// inside one machine word* of a shared word array. Confinement means one
// memory access touches the whole vector, and the word index plus all bit
// positions are derived from the flow's single 64-bit hash (the paper's
// "hash function reuse": one hash, two memory accesses for the whole
// two-layer structure).
//
// Many flows share words; bits shared between flows are the statistical
// noise that the decode table's estimator tolerates.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "util/hash.h"
#include "util/rng.h"

// zeros_in() runs on every packet. Without POPCNT, std::popcount lowers to
// a libgcc call per packet; the root CMakeLists.txt adds -mpopcnt on x86-64.
#if defined(__x86_64__) && !defined(__POPCNT__)
#error "x86-64 builds need POPCNT: compile with -mpopcnt"
#endif

namespace instameasure::sketch {

inline constexpr std::size_t kWordBits = 64;
inline constexpr std::size_t kMaxVvBits = 64;

/// A flow's virtual vector: which word, and which bits of it.
struct VvLayout {
  std::uint64_t word_index = 0;
  std::uint64_t mask = 0;                      ///< OR of all positions
  std::array<std::uint8_t, kMaxVvBits> pos{};  ///< the b distinct positions
  std::uint8_t bits = 0;

  /// Number of the flow's positions still zero in `word`.
  [[nodiscard]] constexpr unsigned zeros_in(std::uint64_t word) const noexcept {
    return static_cast<unsigned>(bits) -
           static_cast<unsigned>(std::popcount(word & mask));
  }
};

/// Word index a flow maps to, without drawing the bit positions: the first
/// step of make_layout().
[[nodiscard]] inline std::uint64_t layout_word_index(
    std::uint64_t flow_hash, std::uint64_t n_words,
    std::uint64_t seed = 0) noexcept {
  return util::reduce_range(util::mix64(flow_hash ^ seed), n_words);
}

/// Compute a flow's layout for a word array of `n_words` and a virtual
/// vector of `vv_bits` distinct positions. Deterministic in (hash, seed).
///
/// Positions are drawn from a SplitMix64 stream keyed by the flow hash;
/// duplicates are resolved by linear probing within the word so the vector
/// always has exactly `vv_bits` distinct bits. The probe takes the first
/// free position at or after the draw, cyclically, in one step: the free
/// positions rotated so the draw sits at bit 0, then their lowest set bit.
/// `~mask` is never zero there, since at most 63 positions are taken.
[[nodiscard]] inline VvLayout make_layout(std::uint64_t flow_hash,
                                          std::uint64_t n_words,
                                          unsigned vv_bits,
                                          std::uint64_t seed = 0) noexcept {
  VvLayout layout;
  layout.word_index = layout_word_index(flow_hash, n_words, seed);
  layout.bits = static_cast<std::uint8_t>(vv_bits);
  util::SplitMix64 prng{flow_hash ^ (seed * 0x9e3779b97f4a7c15ULL) ^
                        0xc0ffee123456789ULL};
  for (unsigned i = 0; i < vv_bits; ++i) {
    auto p = static_cast<unsigned>(prng() % kWordBits);
    p = (p + static_cast<unsigned>(std::countr_zero(
                 std::rotr(~layout.mask, static_cast<int>(p))))) %
        kWordBits;
    layout.pos[i] = static_cast<std::uint8_t>(p);
    layout.mask |= 1ULL << p;
  }
  return layout;
}

}  // namespace instameasure::sketch
