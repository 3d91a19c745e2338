// Span recording for the benchmark's traced pass.
//
// Spans are taken from outside the program, around the calls the benchmark
// makes into each layer's public API. Every span records its name, start,
// end, the name of the span that caused it, and a request id (burst or chunk
// number) shared by the spans of one request. Raw spans go into a buffer
// preallocated at construction and capped; past the cap only the per-name
// aggregates keep counting, so recording never allocates while packets
// flow. The buffers are written as one Chrome-trace JSON file at exit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

enum class SpanName : std::uint8_t {
  kPass,       ///< one MultiCoreEngine::run_source call
  kNextBurst,  ///< PacketSource::next_burst that delivered records
  kDispatch,   ///< manager time between a burst and the next pull
  kQueryTopK,  ///< QueryEngine::top_k
  kQueryFlow,  ///< QueryEngine::flow
  kReplay,     ///< one single-thread replay of worker 0's substream
  kChunk,      ///< one 64-packet chunk of the composed replay
  kHash,       ///< FlowKey::hash over a chunk
  kRegulator,  ///< FlowRegulator::offer over a chunk
  kWsaf,       ///< WsafTable::accumulate over a chunk's events
  kScalar,     ///< InstaMeasure::process over a chunk
  kBatch,      ///< InstaMeasure::process_batch over a chunk
  kCount,
};

[[nodiscard]] const char* to_string(SpanName name) noexcept;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;
  SpanName name = SpanName::kPass;
  SpanName parent = SpanName::kPass;  ///< a root span names itself
};

struct SpanTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Single-thread span recorder: one per recording thread.
class SpanRecorder {
 public:
  SpanRecorder(std::string thread_name, std::size_t capacity);

  void record(SpanName name, SpanName parent, std::uint64_t request,
              std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
    auto& total = totals_[static_cast<std::size_t>(name)];
    ++total.count;
    total.total_ns += end_ns - start_ns;
    // Capacity was reserved up front, so this never reallocates.
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({start_ns, end_ns, request, name, parent});
    }
  }

  [[nodiscard]] const SpanTotal& total(SpanName name) const noexcept {
    return totals_[static_cast<std::size_t>(name)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& thread_name() const noexcept {
    return thread_name_;
  }

 private:
  std::string thread_name_;
  std::vector<Span> spans_;
  std::array<SpanTotal, static_cast<std::size_t>(SpanName::kCount)> totals_{};
};

/// Log-bucketed histogram of non-negative integers (nanoseconds): 128
/// sub-buckets per power of two, so a quantile is within 0.8% of the exact
/// value. Fixed size, so recording never allocates.
class LogHistogram {
 public:
  void record(std::uint64_t v) noexcept {
    ++buckets_[index(v)];
    ++count_;
    if (v > max_) max_ = v;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  /// Nearest-rank quantile, q in (0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  static constexpr std::size_t kSub = 128;
  static constexpr std::size_t kBuckets = kSub + 57 * kSub;
  [[nodiscard]] static std::size_t index(std::uint64_t v) noexcept;
  [[nodiscard]] static std::uint64_t lower_bound(std::size_t i) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// Write every recorder's raw spans plus the per-name aggregates as one
/// Chrome-trace JSON document (load it in chrome://tracing or Perfetto).
/// Times are relative to `origin_ns`. Returns false on an I/O error.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders,
                        std::uint64_t origin_ns);

}  // namespace bench
