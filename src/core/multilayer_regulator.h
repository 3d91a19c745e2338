// N-layer generalization of the FlowRegulator.
//
// The paper tunes rate regulation "by adjusting the vector size or even the
// number of layers" (§V.B). This module generalizes the two-layer design to
// N layers: a saturation at layer l with noise level u feeds one bit into a
// layer-(l+1) bank selected by the *path* of noise levels so far, so every
// bank aggregates events of identical per-event weight — the invariant that
// makes multiplicative decoding unbiased.
//
// Memory: with L = noise levels per layer, layer l has L^l banks; total
// banks are (L^layers - 1) / (L - 1) (4 for the paper's two layers, 13 for
// three). Regulation shrinks geometrically with each layer (~1/9 per layer
// for b = 8) while retention — and therefore worst-case estimation error —
// grows by the same factor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/flow_regulator.h"
#include "sketch/rcc.h"

namespace instameasure::core {

struct MultiLayerConfig {
  std::size_t layer_memory_bytes = 32 * 1024;  ///< per bank
  unsigned vv_bits = 8;
  unsigned layers = 2;
  unsigned noise_min = 1;
  unsigned noise_max = 0;  ///< 0 = derive 3b/8
  std::uint64_t seed = 0x1237;
  /// When set, packet/emission counters are exported here.
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  /// When set, intermediate-layer saturations (kL1Saturation, aux=layer)
  /// and final-layer emissions (kL2Saturation) are flight-recorded on
  /// `trace_track`.
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;

  [[nodiscard]] sketch::RccConfig bank_config() const noexcept {
    return sketch::RccConfig{layer_memory_bytes, vv_bits, noise_min,
                             noise_max, seed};
  }
  [[nodiscard]] unsigned levels() const noexcept {
    return bank_config().effective_noise_max() - noise_min + 1;
  }
  [[nodiscard]] std::size_t total_banks() const noexcept {
    std::size_t banks = 0, layer_banks = 1;
    for (unsigned l = 0; l < layers; ++l) {
      banks += layer_banks;
      layer_banks *= levels();
    }
    return banks;
  }
  [[nodiscard]] std::size_t total_memory_bytes() const noexcept {
    return total_banks() * layer_memory_bytes;
  }
};

class MultiLayerRegulator {
 public:
  explicit MultiLayerRegulator(const MultiLayerConfig& config);

  /// Process one packet; emits an event when the final layer saturates.
  [[nodiscard]] std::optional<SaturationEvent> offer(
      std::uint64_t flow_hash, std::uint16_t wire_len) noexcept {
    return offer(flow_hash, wire_len, layout_of(flow_hash));
  }

  /// Same, with the flow's layout precomputed (batched callers). `layout`
  /// must equal layout_of(flow_hash).
  [[nodiscard]] std::optional<SaturationEvent> offer(
      std::uint64_t flow_hash, std::uint16_t wire_len,
      const sketch::VvLayout& layout) noexcept;

  /// The flow's virtual-vector layout, shared by every bank on its path.
  [[nodiscard]] sketch::VvLayout layout_of(
      std::uint64_t flow_hash) const noexcept {
    return banks_.front().layout_of(flow_hash);
  }

  /// Prefetch the layer-0 word line (and length sample) for this flow.
  /// Deeper layers are touched too rarely to be worth the extra lines.
  void prefetch(std::uint64_t flow_hash) const noexcept {
    const auto wi = banks_.front().word_index_of(flow_hash);
    banks_.front().prefetch_word(wi);
    __builtin_prefetch(static_cast<const void*>(last_len_.data() + wi), 1, 3);
  }

  /// Packets retained across every layer/path for this flow.
  [[nodiscard]] double residual_packets(std::uint64_t flow_hash) const noexcept;

  /// Counted since the last reset().
  [[nodiscard]] std::uint64_t packets() const noexcept {
    return packets_.value() - packets_base_;
  }
  [[nodiscard]] std::uint64_t emissions() const noexcept {
    return emissions_.value() - emissions_base_;
  }
  [[nodiscard]] double regulation_rate() const noexcept {
    const auto n = packets();
    return n ? static_cast<double>(emissions()) / static_cast<double>(n)
             : 0.0;
  }
  [[nodiscard]] double mean_packets_per_event() const noexcept {
    const auto events = emissions();
    return events ? emitted_estimate_ / static_cast<double>(events) : 0.0;
  }
  [[nodiscard]] const MultiLayerConfig& config() const noexcept {
    return config_;
  }

  void reset() noexcept;

 private:
  /// Flat index of the bank at `layer` reached via noise-level `path`.
  [[nodiscard]] std::size_t bank_index(unsigned layer,
                                       std::size_t path) const noexcept {
    return layer_offsets_[layer] + path;
  }

  MultiLayerConfig config_;
  unsigned levels_;
  unsigned noise_min_;
  std::vector<std::size_t> layer_offsets_;
  std::vector<sketch::RccSketch> banks_;
  std::vector<std::uint16_t> last_len_;  ///< per word of the layer-0 bank
  // Counted once, in the exported counters; reset() rebases the accessors
  // so the series stay monotone (as in FlowRegulator).
  telemetry::Counter packets_;
  telemetry::Counter emissions_;
  std::uint64_t packets_base_ = 0;
  std::uint64_t emissions_base_ = 0;
  double emitted_estimate_ = 0;
  telemetry::TraceRecorder* trace_ = nullptr;
  unsigned trace_track_ = 0;
};

}  // namespace instameasure::core
