#include "netio/source.h"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

namespace instameasure::netio {

namespace {

[[nodiscard]] std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ReplaySource::ReplaySource(std::span<const PacketRecord> records,
                           Config config)
    : records_(records), config_(config) {
  if (!std::isfinite(config_.speed) || config_.speed <= 0) {
    throw std::invalid_argument(
        "ReplaySource: speed must be finite and > 0 (got " +
        std::to_string(config_.speed) + ")");
  }
  if (!std::isfinite(config_.pace_pps) || config_.pace_pps < 0) {
    throw std::invalid_argument(
        "ReplaySource: pace_pps must be finite and >= 0 (got " +
        std::to_string(config_.pace_pps) + ")");
  }
  if (!records_.empty()) trace_start_ns_ = records_.front().timestamp_ns;
}

std::size_t ReplaySource::next_burst(std::span<PacketRecord> out) {
  if (next_ >= records_.size() || out.empty()) return 0;
  const bool fixed_rate = config_.pace_pps > 0;
  const bool paced = fixed_rate || config_.pace_by_timestamps;
  if (paced && wall_start_ns_ == 0) wall_start_ns_ = steady_now_ns();
  std::size_t filled = 0;
  while (filled < out.size() && next_ < records_.size()) {
    const auto& rec = records_[next_];
    if (paced) {
      const double offset_ns =
          fixed_rate
              ? static_cast<double>(next_) * 1e9 / config_.pace_pps
              : static_cast<double>(rec.timestamp_ns - trace_start_ns_) /
                    config_.speed;
      if (steady_now_ns() <
          wall_start_ns_ + static_cast<std::uint64_t>(offset_ns)) {
        // Not due yet: hand back what is, so the consumer keeps draining
        // at trace pace instead of blocking inside the source.
        if (filled == 0) ++stats_.wait_cycles;
        break;
      }
    }
    out[filled++] = rec;
    ++next_;
  }
  if (filled > 0) {
    stats_.received += filled;
    ++stats_.bursts;
  }
  return filled;
}

PcapFileSource::PcapFileSource(const std::string& path) : reader_(path) {}

std::size_t PcapFileSource::next_burst(std::span<PacketRecord> out) {
  if (eof_) return 0;
  std::size_t filled = 0;
  while (filled < out.size()) {
    auto rec = reader_.next_record();
    if (!rec) {
      eof_ = true;
      break;
    }
    out[filled++] = *rec;
  }
  if (filled > 0) {
    stats_.received += filled;
    ++stats_.bursts;
  }
  return filled;
}

SourceStats PcapFileSource::stats() const noexcept {
  SourceStats s = stats_;
  s.skipped = reader_.skipped();
  s.fragments = reader_.fragments();
  s.truncated = reader_.truncated();
  return s;
}

}  // namespace instameasure::netio
