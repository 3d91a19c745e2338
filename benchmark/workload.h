// Workload construction for the repo benchmark.
//
// Every workload is built from one CAIDA-like trace plus a fixed set of
// constant-rate attackers, all derived from the seed before any timer
// starts. The benchmark computes its own ground truth here instead of using
// src/analysis, so a change to the library's analysis code cannot move the
// yardstick it is measured by.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netio/packet.h"

namespace bench {

using instameasure::netio::FlowKey;
using instameasure::netio::PacketRecord;
using FlowCounts =
    std::unordered_map<FlowKey, std::uint64_t, instameasure::netio::FlowKeyHash>;

/// Heavy-hitter detection threshold in packets (as in bench_fig09b).
inline constexpr double kHhThreshold = 500;
/// Flows at or above this many true packets are the `skew` workload's NAT
/// population and the elephants the ARE metric scores.
inline constexpr std::uint64_t kElephantPackets = 10'000;

struct Attacker {
  FlowKey key;
  /// Trace time of the attacker's kHhThreshold-th packet: the instant an
  /// exact per-packet counter would have crossed the threshold.
  std::uint64_t truth_cross_ns = 0;
};

enum class Loop { kClosed, kOpen };

struct Workload {
  std::string name;
  Loop loop = Loop::kClosed;
  /// Open loop only: trace-time compression factor of the replay schedule.
  double speed = 0;
  std::vector<PacketRecord> packets;  ///< sorted by timestamp
  std::vector<Attacker> attackers;
  FlowCounts truth;                   ///< exact packets per flow
};

[[nodiscard]] bool is_workload(const std::string& name);

/// Build workload `name` ("caida", "skew" or "live") at trace `scale` from
/// `seed`. Deterministic: the same arguments give the same packets.
[[nodiscard]] Workload make_workload(const std::string& name, double scale,
                                     std::uint64_t seed);

}  // namespace bench
