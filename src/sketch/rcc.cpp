#include "sketch/rcc.h"

#include <stdexcept>
#include <string>

namespace instameasure::sketch {

namespace {

/// The DecodeTable's bounds, checked in every build (its asserts vanish
/// under NDEBUG) and before the table is built. Past them, make_layout
/// probes a full word forever (vv_bits > 64) and the bank count underflows
/// (noise_min > noise_max).
const RccConfig& validated(const RccConfig& config) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("RccConfig: " + what);
  };
  if (config.vv_bits < 2 || config.vv_bits > kMaxVvBits) {
    fail("vv_bits must be in [2, 64] (got " + std::to_string(config.vv_bits) +
         ")");
  }
  if (config.noise_min < 1) fail("noise_min must be >= 1 (got 0)");
  const unsigned noise_max = config.effective_noise_max();
  if (noise_max < config.noise_min) {
    fail("noise_max must be >= noise_min (got noise_max " +
         std::to_string(noise_max) + ", noise_min " +
         std::to_string(config.noise_min) + ")");
  }
  if (noise_max >= config.vv_bits) {
    fail("noise_max must be < vv_bits (got noise_max " +
         std::to_string(noise_max) + ", vv_bits " +
         std::to_string(config.vv_bits) + ")");
  }
  return config;
}

}  // namespace

RccSketch::RccSketch(const RccConfig& config)
    : config_(validated(config)),
      n_words_(config.n_words()),
      vv_bits_(config.vv_bits),
      noise_min_(config.noise_min),
      noise_max_(config.effective_noise_max()),
      seed_(config.seed),
      decode_(&DecodeTable::shared(config.decode_config())),
      words_(n_words_, 0),
      draw_rng_(config.seed ^ 0xdeadbeefcafef00dULL) {}

void RccSketch::reset() noexcept {
  std::fill(words_.begin(), words_.end(), 0);
  packets_ = 0;
  saturations_ = 0;
}

}  // namespace instameasure::sketch
