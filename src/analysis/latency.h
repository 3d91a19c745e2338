// Detection-latency harness: the paper's three decoding strategies head to
// head (§II "Saturation-based decoding for flows", Fig 9b).
//
//  - packet-arrival-based: exact per-packet counting; the ground-truth
//    crossing time (fastest possible, infeasible at line rate).
//  - saturation-based: InstaMeasure; detection happens when a FlowRegulator
//    L2 saturation pushes the WSAF counter across the threshold.
//  - delegation-based: the conventional design; a Count-Min sketch is
//    shipped to a remote collector every epoch and the collector decodes,
//    so detection waits for the next epoch boundary plus network delay.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/instameasure.h"
#include "trace/trace.h"

namespace instameasure::analysis {

struct LatencyConfig {
  double packet_threshold = 500;     ///< HH threshold in packets
  double epoch_ms = 10.0;            ///< delegation flush period
  double network_delay_ms = 20.0;    ///< collector round trip
  core::EngineConfig engine{};
};

struct FlowLatency {
  netio::FlowKey key;
  std::uint64_t truth_ns = 0;  ///< packet-arrival crossing time
  std::optional<std::uint64_t> saturation_ns;
  std::optional<std::uint64_t> delegation_ns;

  [[nodiscard]] std::optional<double> saturation_delay_ms() const {
    if (!saturation_ns) return std::nullopt;
    return (static_cast<double>(*saturation_ns) -
            static_cast<double>(truth_ns)) / 1e6;
  }
  [[nodiscard]] std::optional<double> delegation_delay_ms() const {
    if (!delegation_ns) return std::nullopt;
    return (static_cast<double>(*delegation_ns) -
            static_cast<double>(truth_ns)) / 1e6;
  }
};

/// Replay `trace` through all three detectors, watching `watched` flows
/// (typically injected attack flows). Returns one row per watched flow that
/// crossed the threshold in ground truth.
[[nodiscard]] std::vector<FlowLatency> measure_detection_latency(
    const trace::Trace& trace, const std::vector<netio::FlowKey>& watched,
    const LatencyConfig& config);

}  // namespace instameasure::analysis
