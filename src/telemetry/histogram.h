// Fixed-bucket log-scale histogram cell (HDR-style), built for latencies.
//
// Bucket layout: values below 2^kSubBucketBits get one bucket each (exact);
// above that, each power-of-two octave is split into 2^kSubBucketBits
// sub-buckets, so the relative bucket width — and therefore the worst-case
// quantile error — is bounded by 2^-kSubBucketBits (12.5% with 3 bits;
// quantile() reports bucket midpoints, halving that). The whole cell is a
// flat array of relaxed atomics: record() is wait-free and, under the
// single-writer discipline the registry establishes, compiles to two plain
// adds and a compare. Covers the full uint64 range — nanoseconds to hours.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>

namespace instameasure::telemetry {

struct alignas(64) HistogramCell {
  static constexpr unsigned kSubBucketBits = 3;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
  /// Octave 0 covers [0, kSubBuckets); octaves for exponents
  /// kSubBucketBits..63 follow, kSubBuckets buckets each.
  static constexpr unsigned kBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};

  [[nodiscard]] static constexpr unsigned bucket_index(
      std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<unsigned>(v);
    const unsigned e = std::bit_width(v) - 1;  // 2^e <= v < 2^(e+1)
    const auto m =
        static_cast<unsigned>((v >> (e - kSubBucketBits)) - kSubBuckets);
    return (e - kSubBucketBits + 1) * kSubBuckets + m;
  }

  /// Inclusive [lower, upper] value range of bucket i.
  [[nodiscard]] static constexpr std::pair<std::uint64_t, std::uint64_t>
  bucket_range(unsigned i) noexcept {
    const unsigned block = i >> kSubBucketBits;
    const std::uint64_t m = i & (kSubBuckets - 1);
    if (block == 0) return {m, m};
    const unsigned shift = block - 1;
    const std::uint64_t lower = (kSubBuckets + m) << shift;
    return {lower, lower + ((std::uint64_t{1} << shift) - 1)};
  }

  void record(std::uint64_t v) noexcept {
    auto& b = buckets[bucket_index(v)];
    b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    sum.store(sum.load(std::memory_order_relaxed) + static_cast<double>(v),
              std::memory_order_relaxed);
    if (v > max.load(std::memory_order_relaxed)) {
      max.store(v, std::memory_order_relaxed);
    }
  }

  /// Quantile estimate (bucket midpoint), q in [0, 1]. 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept {
    const auto total = count.load(std::memory_order_relaxed);
    if (total == 0) return 0.0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    // Rank of the q-th value, 1-based; q=0 -> first, q=1 -> last.
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(
                                                         total - 1)) +
                      1;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      seen += buckets[i].load(std::memory_order_relaxed);
      if (seen >= rank) {
        const auto [lo, hi] = bucket_range(i);
        return (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0;
      }
    }
    return static_cast<double>(max.load(std::memory_order_relaxed));
  }
};

}  // namespace instameasure::telemetry
