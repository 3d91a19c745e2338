// FlowRegulator: the paper's two-layer sketch front-end (§III).
//
// Layer 1 is an RCC sketch. When a flow's L1 virtual vector saturates at
// noise level u, one bit is encoded into the flow's vector inside L2 bank u
// — the same word index and the same bit positions as L1 ("hash function
// reuse"), so the whole structure costs one hash and at most two memory
// accesses per packet. When the L2 vector saturates at level w, the flow
// has pushed roughly unit(u) × unit(w) packets through the regulator; that
// estimate (plus a byte estimate sampled from the triggering packet's
// length) is emitted as a SaturationEvent for the WSAF table.
//
// The multiplicative two-layer design is what turns RCC's ~12–19% regulation
// rate into the ~1% the in-DRAM WSAF needs (Figs 1, 7, 8).
//
// Deriving a layout from the hash takes b + 1 mix64 rounds against the
// update's one word, so recent layouts are memoized (memo_entry): a
// recurring flow's layout is read in place from one cache-resident entry.
// The packet path is inline up to the L1 encode and branches only on a memo
// miss and on an L1 saturation (a few % of packets); a saturation continues
// out of line into the L2 bank.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/rcc.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace instameasure::core {

/// log2 of the layout memo's entry count (see FlowRegulator::memo_entry).
/// Packet-path hit rates on the benchmark's `caida` worker 0 (seed 1):
/// 2^10 → 0.740, 2^12 → 0.855, 2^14 → 0.938. 2^12 entries of 96 bytes are
/// 384 KB, beside the 128 KB of sketch they serve.
inline constexpr unsigned kLayoutMemoBits = 12;

struct FlowRegulatorConfig {
  /// L1 word-array size in bytes. Every L2 bank is the same size, so total
  /// memory is (1 + banks) × l1_memory_bytes — the paper's 32KB L1 → 128KB
  /// total with 3 banks.
  std::size_t l1_memory_bytes = 32 * 1024;
  unsigned vv_bits = 8;   ///< per layer; the paper's "16-bit vector" = 2×8
  unsigned noise_min = 1;
  unsigned noise_max = 0;  ///< 0 = derive 3b/8 (3 banks for b = 8)
  std::uint64_t seed = 0x1237;
  /// When set, packet/saturation counters are exported here (with `labels`
  /// on every series). The regulator behaves identically without one.
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  /// When set, L1/L2 saturations are recorded as flight-recorder events on
  /// `trace_track` (the owning worker's ring; see telemetry/trace.h).
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;

  [[nodiscard]] sketch::RccConfig layer_config() const noexcept {
    return sketch::RccConfig{l1_memory_bytes, vv_bits, noise_min, noise_max,
                             seed};
  }
  [[nodiscard]] unsigned banks() const noexcept {
    const auto rcc = layer_config();
    return rcc.effective_noise_max() - noise_min + 1;
  }
  [[nodiscard]] std::size_t total_memory_bytes() const noexcept {
    return l1_memory_bytes * (1 + banks());
  }
};

/// Emitted when a flow's L2 vector saturates: the decoded packet/byte
/// fractions to accumulate into the WSAF.
struct SaturationEvent {
  double est_packets = 0;
  double est_bytes = 0;
};

class FlowRegulator {
 public:
  explicit FlowRegulator(const FlowRegulatorConfig& config);

  /// One layout-memo entry: a flow's virtual-vector layout (shared by L1
  /// and every L2 bank) and, as its tag, the full hash it belongs to.
  struct MemoEntry {
    std::uint64_t flow_hash;
    sketch::VvLayout layout;
  };

  /// Process one packet of the flow identified by `flow_hash` carrying
  /// `wire_len` bytes. Returns a SaturationEvent when the flow's counts
  /// should be flushed into the WSAF (≈1% of calls with default config).
  [[nodiscard]] std::optional<SaturationEvent> offer(
      std::uint64_t flow_hash, std::uint16_t wire_len) noexcept {
    return offer(flow_hash, wire_len, memo_entry(flow_hash).layout);
  }

  /// Same, with the flow's (L1) layout already computed — the batched
  /// engine derives it once per packet and reuses it across both layers.
  /// `layout` must equal the layout memo_entry(flow_hash) holds or behavior
  /// diverges.
  [[nodiscard]] std::optional<SaturationEvent> offer(
      std::uint64_t flow_hash, std::uint16_t wire_len,
      const sketch::VvLayout& layout) noexcept {
    packets_.inc();
    last_len_[layout.word_index] = wire_len;
    const auto l1_noise = l1_.encode(layout);
    if (!l1_noise) [[likely]] return std::nullopt;
    return on_l1_saturation(flow_hash, wire_len, layout, *l1_noise);
  }

  /// The flow's layout-memo entry: a direct-mapped table indexed by the
  /// hash's top kLayoutMemoBits bits, tagged with the full hash. A hit
  /// returns the entry as it is; a miss derives the layout (b + 1 mix64
  /// rounds) into it. A layout depends only on hash, seed and geometry, so
  /// the entry's layout equals l1_.layout_of(flow_hash) either way and
  /// reset() keeps the memo. The reference holds until the next call for a
  /// flow on the same index, which overwrites the entry: a caller that
  /// keeps it across calls re-checks `flow_hash` before reading the layout.
  /// Only the packet path goes through the memo; the residual queries
  /// derive layouts directly and stay const.
  [[nodiscard]] const MemoEntry& memo_entry(std::uint64_t flow_hash) noexcept {
    auto& entry = memo_[flow_hash >> (64 - kLayoutMemoBits)];
    if (entry.flow_hash != flow_hash) {
      entry.flow_hash = flow_hash;
      entry.layout = l1_.layout_of(flow_hash);
    }
    return entry;
  }

  /// Residual packets currently retained for this flow across both layers
  /// (not yet emitted to WSAF). Used by end-of-epoch queries so mice flows
  /// are countable too.
  [[nodiscard]] double residual_packets(std::uint64_t flow_hash) const noexcept;

  /// Residual byte estimate: residual packets × last packet length observed
  /// at the flow's L1 word (a per-word sample, not per-flow state).
  [[nodiscard]] double residual_bytes(std::uint64_t flow_hash) const noexcept;

  // Rate statistics (Figs 1, 7), counted since the last reset().
  [[nodiscard]] std::uint64_t packets() const noexcept {
    return packets_.value() - packets_base_;
  }
  [[nodiscard]] std::uint64_t l1_saturations() const noexcept {
    return l1_saturations_.value() - l1_base_;
  }
  [[nodiscard]] std::uint64_t l2_saturations() const noexcept {
    return l2_saturations_.value() - l2_base_;
  }
  /// WSAF insertions per input packet — the paper's regulation rate.
  [[nodiscard]] double regulation_rate() const noexcept {
    const auto n = packets();
    return n ? static_cast<double>(l2_saturations()) / static_cast<double>(n)
             : 0.0;
  }
  /// Mean packets represented by one WSAF insertion (retention capacity as
  /// measured end-to-end; Fig 8a).
  [[nodiscard]] double mean_packets_per_event() const noexcept;

  [[nodiscard]] const FlowRegulatorConfig& config() const noexcept {
    return config_;
  }
  /// Everything the regulator allocates: the sketch layers, the per-word
  /// length samples and the layout memo. The paper's budget is
  /// config().total_memory_bytes(), the sketch layers alone.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return config_.total_memory_bytes() +
           last_len_.size() * sizeof(std::uint16_t) +
           memo_.size() * sizeof(MemoEntry);
  }

  void reset() noexcept;

 private:
  /// offer() past an L1 saturation at `l1_noise`: the L2 bank encode, the
  /// event and the trace emits.
  [[nodiscard]] std::optional<SaturationEvent> on_l1_saturation(
      std::uint64_t flow_hash, std::uint16_t wire_len,
      const sketch::VvLayout& layout, unsigned l1_noise) noexcept;

  FlowRegulatorConfig config_;
  sketch::RccSketch l1_;
  std::vector<sketch::RccSketch> l2_;  ///< one bank per noise level
  unsigned noise_min_;
  /// Last wire length seen per L1 word: the byte-sampling state for the
  /// residual flush (the event path samples the triggering packet directly).
  std::vector<std::uint16_t> last_len_;
  /// Layout memo: derived values only, so it never changes a count.
  std::vector<MemoEntry> memo_;
  // Each count is counted once, in its exported counter (a single-writer
  // cell; see telemetry/metrics.h). reset() moves the accessors' baseline
  // instead of rewinding the cell, so the exported series stay monotone.
  telemetry::Counter packets_;
  telemetry::Counter l1_saturations_;
  telemetry::Counter l2_saturations_;
  std::uint64_t packets_base_ = 0;
  std::uint64_t l1_base_ = 0;
  std::uint64_t l2_base_ = 0;
  double emitted_packet_estimate_ = 0;
  telemetry::TraceRecorder* trace_ = nullptr;
  unsigned trace_track_ = 0;
};

}  // namespace instameasure::core
