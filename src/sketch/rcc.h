// RCC: Recyclable Counter with Confinement (Nyang & Shin, ToN 2016).
//
// A word array where each flow encodes into a b-bit virtual vector confined
// to one word (see virtual_vector.h). Online decoding: the moment a flow's
// vector saturates, the sketch reports a noise level from which the packet
// count is recovered (DecodeTable), and the vector is recycled (cleared) for
// reuse — no offline sweep needed.
//
// This class is both the single-layer baseline evaluated in Figs 1/7/8 and
// the building block of the two-layer FlowRegulator (core/flow_regulator.h):
// the L1 counter and every L2 bank are RccSketch instances sharing one
// VvLayout per packet.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/decode_table.h"
#include "sketch/virtual_vector.h"
#include "util/rng.h"

namespace instameasure::sketch {

struct RccConfig {
  /// Size of the word array in bytes (the paper quotes sketch sizes this
  /// way: 32KB–512KB for L1). Rounded down to whole 64-bit words, min 1.
  std::size_t memory_bytes = 32 * 1024;
  unsigned vv_bits = 8;
  /// Noise band [noise_min, noise_max]: saturation triggers when a draw
  /// collides while `zeros <= noise_max`. Default noise_max = 3b/8 (the
  /// paper's "three cases" for b = 8), noise_min = 1.
  unsigned noise_min = 1;
  unsigned noise_max = 0;  ///< 0 = derive from vv_bits
  std::uint64_t seed = 0x1237;

  [[nodiscard]] unsigned effective_noise_max() const noexcept {
    if (noise_max != 0) return noise_max;
    const unsigned derived = vv_bits * 3 / 8;
    return derived == 0 ? 1 : derived;
  }
  [[nodiscard]] std::uint64_t n_words() const noexcept {
    const auto words = memory_bytes / sizeof(std::uint64_t);
    return words == 0 ? 1 : words;
  }
  [[nodiscard]] DecodeConfig decode_config() const noexcept {
    return DecodeConfig{vv_bits, noise_min, effective_noise_max()};
  }
};

class RccSketch {
 public:
  /// Throws std::invalid_argument unless 2 <= vv_bits <= 64,
  /// noise_min >= 1 and noise_min <= effective_noise_max() < vv_bits.
  explicit RccSketch(const RccConfig& config);

  /// Layout for a flow hash under this sketch's geometry. In the two-layer
  /// structure the caller computes this once and reuses it across layers.
  [[nodiscard]] VvLayout layout_of(std::uint64_t flow_hash) const noexcept {
    return make_layout(flow_hash, n_words_, vv_bits_, seed_);
  }

  /// Encode one packet. Returns the noise level if this packet saturated the
  /// flow's vector (the vector is recycled before returning); nullopt
  /// otherwise. O(1): one word read-modify-write.
  ///
  /// A drawn bit that is already set is a collision, and a collision with
  /// at most noise_max zeros left is a saturation. Both tests are all-ones
  /// or all-zero masks and the word is written once, so the only branch is
  /// the rare saturation: a jump on the collision test would depend on a
  /// random draw and on the word just loaded, and mispredict often.
  [[nodiscard]] std::optional<unsigned> encode(const VvLayout& layout) noexcept {
    ++packets_;
    std::uint64_t& word = words_[layout.word_index];
    const std::uint64_t w = word;
    const auto slot = static_cast<unsigned>(
        util::reduce_range(draw_rng_(), layout.bits));
    const unsigned p = layout.pos[slot];
    const unsigned z = layout.zeros_in(w);
    const std::uint64_t collided = 0 - ((w >> p) & 1);
    // z <= noise_max_ as the sign of z - noise_max_ - 1 (both are <= 64).
    const auto in_band = static_cast<std::uint64_t>(
        (static_cast<std::int64_t>(z) - noise_max_ - 1) >> 63);
    const std::uint64_t sat = collided & in_band;
    const std::uint64_t set = w | (std::uint64_t{1} << p);
    // No collision: set the bit. Saturation: clear only this flow's
    // positions (recycle). A silent collision leaves the word as it was.
    word = set ^ ((set ^ (w & ~layout.mask)) & sat);
    if (sat != 0) [[unlikely]] {
      ++saturations_;
      return z < noise_min_ ? noise_min_ : z;
    }
    return std::nullopt;
  }

  /// Zero-bit count of the flow's vector right now (for residual decoding).
  [[nodiscard]] unsigned zeros(const VvLayout& layout) const noexcept {
    return layout.zeros_in(words_[layout.word_index]);
  }

  /// ML residual estimate of packets currently held for this flow.
  [[nodiscard]] double residual_estimate(const VvLayout& layout) const noexcept {
    return decode_->partial(zeros(layout));
  }

  /// Expected packets represented by one saturation at `level`.
  [[nodiscard]] double unit(unsigned level) const noexcept {
    return decode_->unit(level);
  }

  [[nodiscard]] double mean_packets_per_saturation() const noexcept {
    return decode_->mean_packets_per_saturation();
  }

  [[nodiscard]] const RccConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t n_words() const noexcept { return n_words_; }
  [[nodiscard]] std::uint64_t packets_encoded() const noexcept {
    return packets_;
  }
  [[nodiscard]] std::uint64_t saturations() const noexcept {
    return saturations_;
  }
  /// Fraction of encoded packets that produced a saturation — the paper's
  /// "regulation rate" (output ips / input pps) for a single layer.
  [[nodiscard]] double regulation_rate() const noexcept {
    return packets_ ? static_cast<double>(saturations_) /
                          static_cast<double>(packets_)
                    : 0.0;
  }

  /// Clear all words and statistics (a new measurement epoch).
  void reset() noexcept;

 private:
  RccConfig config_;
  std::uint64_t n_words_;
  unsigned vv_bits_;
  unsigned noise_min_;
  unsigned noise_max_;
  std::uint64_t seed_;
  const DecodeTable* decode_;  // shared, immutable
  std::vector<std::uint64_t> words_;
  util::SplitMix64 draw_rng_;
  std::uint64_t packets_ = 0;
  std::uint64_t saturations_ = 0;
};

}  // namespace instameasure::sketch
