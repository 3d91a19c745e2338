// Delegation-based measurement pipeline: exporter -> channel -> collector.
//
// This is the complete conventional design (NetFlow/OpenSketch-style) the
// paper contrasts with: the switch encodes into a sketch it cannot decode
// online, ships it to a collector every epoch, and the collector merges
// and decodes after a network delay. Detection latency is structurally
// >= epoch remainder + delay — the quantity Figs 9(b) compares against.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include <chrono>

#include "delegation/channel.h"
#include "netio/flow_key.h"
#include "netio/packet.h"
#include "sketch/countmin.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace instameasure::delegation {

struct PipelineConfig {
  double epoch_ms = 10.0;
  ChannelConfig channel{};
  sketch::CountMinConfig sketch{};
  /// Flows the collector alarms on when their cumulative estimate crosses
  /// this threshold (packets). 0 disables alarms.
  double packet_threshold = 0;
  /// When set, exporter/collector counters and the collector decode-time
  /// histogram are exported here (names im_delegation_*).
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  /// When set, epoch seals (kEpochSeal) and collector decodes
  /// (kCollectorDecode) are flight-recorded on `trace_track`.
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;
};

/// Switch-side exporter: encodes packets into the current epoch's sketch
/// and sends it over the channel at each epoch boundary.
class Exporter {
 public:
  Exporter(const PipelineConfig& config,
           SimulatedChannel<sketch::CountMinSketch>* channel)
      : config_(config),
        channel_(channel),
        epoch_ns_(static_cast<std::uint64_t>(config.epoch_ms * 1e6)),
        current_(config.sketch) {
    if (config.registry != nullptr) {
      tel_epochs_ = config.registry->counter(
          "im_delegation_epochs_total", "Epoch sketches flushed to the channel",
          config.labels);
      tel_channel_bytes_ = config.registry->counter(
          "im_delegation_channel_bytes_total",
          "Sketch bytes shipped over the delegation channel", config.labels);
    }
  }

  void offer(const netio::PacketRecord& rec) {
    roll_to(rec.timestamp_ns);
    if (!started_) {
      started_ = true;
      epoch_end_ = rec.timestamp_ns + epoch_ns_;
    }
    current_.add(rec.key.hash());
  }

  /// Advance epoch boundaries up to `now_ns`, flushing each closed epoch.
  void roll_to(std::uint64_t now_ns) {
    while (started_ && now_ns >= epoch_end_) {
      flush(epoch_end_);
      epoch_end_ += epoch_ns_;
    }
  }

  /// Force-flush the current epoch (end of measurement).
  void flush(std::uint64_t now_ns) {
    tel_channel_bytes_.inc(current_.memory_bytes());
    (void)channel_->send(now_ns, current_);
    current_.reset();
    ++epochs_flushed_;
    tel_epochs_.inc();
    if (config_.trace != nullptr) {
      config_.trace->emit(config_.trace_track,
                          telemetry::TraceEventKind::kEpochSeal, 0,
                          static_cast<double>(current_.memory_bytes()),
                          static_cast<std::uint32_t>(epochs_flushed_));
    }
  }

  [[nodiscard]] std::uint64_t epochs_flushed() const noexcept {
    return epochs_flushed_;
  }

 private:
  PipelineConfig config_;
  SimulatedChannel<sketch::CountMinSketch>* channel_;
  std::uint64_t epoch_ns_;
  sketch::CountMinSketch current_;
  bool started_ = false;
  std::uint64_t epoch_end_ = 0;
  std::uint64_t epochs_flushed_ = 0;
  telemetry::Counter tel_epochs_;  ///< mirror of epochs_flushed_
  telemetry::Counter tel_channel_bytes_;
};

/// Collector-side: merges delivered sketches and raises threshold alarms.
/// It can only observe state as of the last delivery — the structural lag.
class Collector {
 public:
  explicit Collector(const PipelineConfig& config)
      : config_(config), merged_(config.sketch) {
    if (config.registry != nullptr) {
      tel_sketches_ = config.registry->counter(
          "im_delegation_sketches_received_total",
          "Epoch sketches the collector has merged", config.labels);
      tel_decode_ns_ = config.registry->histogram(
          "im_delegation_collector_decode_ns",
          "Wall time to merge one delivered sketch and evaluate the watch "
          "list (ns)",
          config.labels);
    }
  }

  /// Merge everything the channel delivered by `now_ns`, one sketch at a
  /// time, and evaluate the watch list after each. Detection timestamps
  /// are the *delivery* times.
  void poll(SimulatedChannel<sketch::CountMinSketch>& channel,
            std::uint64_t now_ns,
            const std::vector<netio::FlowKey>& watched) {
    for (const auto& [deliver_ns, sketch] : channel.deliver_until(now_ns)) {
      const auto t0 = std::chrono::steady_clock::now();
      merged_.merge(sketch);
      ++sketches_received_;
      tel_sketches_.inc();
      if (config_.packet_threshold > 0) {
        for (const auto& key : watched) {
          if (detections_.contains(key)) continue;
          if (static_cast<double>(merged_.query(key.hash())) >=
              config_.packet_threshold) {
            detections_.emplace(key, deliver_ns);
          }
        }
      }
      const auto decode_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      tel_decode_ns_.record(decode_ns);
      if (config_.trace != nullptr) {
        config_.trace->emit(config_.trace_track,
                            telemetry::TraceEventKind::kCollectorDecode, 0,
                            static_cast<double>(decode_ns),
                            static_cast<std::uint32_t>(sketches_received_));
      }
    }
  }

  [[nodiscard]] std::uint64_t query(const netio::FlowKey& key) const {
    return merged_.query(key.hash());
  }

  [[nodiscard]] std::optional<std::uint64_t> detection_time(
      const netio::FlowKey& key) const {
    const auto it = detections_.find(key);
    return it == detections_.end() ? std::nullopt
                                   : std::optional{it->second};
  }

  [[nodiscard]] std::uint64_t sketches_received() const noexcept {
    return sketches_received_;
  }

 private:
  PipelineConfig config_;
  sketch::CountMinSketch merged_;
  std::unordered_map<netio::FlowKey, std::uint64_t, netio::FlowKeyHash>
      detections_;
  std::uint64_t sketches_received_ = 0;
  telemetry::Counter tel_sketches_;  ///< mirror of sketches_received_
  telemetry::Histogram tel_decode_ns_;
};

/// Convenience: run a whole trace through exporter -> channel -> collector
/// and return per-flow detection times (delivery-clock).
struct DelegationRun {
  std::unordered_map<netio::FlowKey, std::uint64_t, netio::FlowKeyHash>
      detections;
  std::uint64_t epochs = 0;
  std::uint64_t sketches_delivered = 0;
};

[[nodiscard]] DelegationRun run_pipeline(
    const netio::PacketVector& packets, const PipelineConfig& config,
    const std::vector<netio::FlowKey>& watched);

}  // namespace instameasure::delegation
