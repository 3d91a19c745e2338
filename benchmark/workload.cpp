#include "workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "trace/generator.h"
#include "util/rng.h"

namespace bench {
namespace {

using instameasure::util::Xoshiro256ss;

constexpr double kMinAttackPps = 10'000;
constexpr double kMaxAttackPps = 200'000;
constexpr std::uint16_t kAttackPacketLen = 512;
/// Open-loop offered rate of `live`: about half of what two workers accept
/// in a closed loop on the reference host (see README.md).
constexpr double kLiveOfferedPps = 14e6;
/// The NAT gateway every `skew` elephant is re-addressed to (RFC 6598
/// shared address space). Its popcount is even, so popcount dispatch over
/// two workers sends the whole NAT population to worker 0, the worker the
/// core replay measures.
constexpr std::uint32_t kNatIp = 0x64400003;  // 100.64.0.3
static_assert(std::popcount(kNatIp) % 2 == 0);

bool by_time(const PacketRecord& a, const PacketRecord& b) {
  return a.timestamp_ns < b.timestamp_ns;
}

/// Constant-rate UDP attackers, 0.1 s each, whose rates are log-spaced
/// over [10, 200] kpps, so the detection-delay distribution does not depend
/// on the seed; keys, start times and jitter do. 0.1 s at the lowest rate
/// is twice the detection threshold. 1000 attackers at scale 0.25 keep the
/// delay percentiles steady from seed to seed; never fewer than 200.
std::vector<PacketRecord> make_attackers(double scale, std::uint64_t seed,
                                         double trace_seconds,
                                         std::vector<Attacker>& attackers) {
  Xoshiro256ss rng{seed ^ 0xa77ac4e5ULL};
  constexpr double duration_s = 0.1;
  const auto count = static_cast<std::size_t>(std::max(200.0, 4000 * scale));
  std::vector<PacketRecord> out;
  attackers.clear();
  attackers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(count - 1);
    const double rate =
        kMinAttackPps * std::pow(kMaxAttackPps / kMinAttackPps, frac);
    Attacker a;
    a.key.src_ip = static_cast<std::uint32_t>(rng());
    a.key.dst_ip = static_cast<std::uint32_t>(rng());
    a.key.src_port = static_cast<std::uint16_t>(1024 + rng.next_below(64512));
    a.key.dst_port = static_cast<std::uint16_t>(1 + rng.next_below(65535));
    a.key.proto = static_cast<std::uint8_t>(instameasure::netio::IpProto::kUdp);
    const double start_s = rng.next_double() * (trace_seconds - duration_s);
    const auto n = static_cast<std::uint64_t>(rate * duration_s);
    const double gap_s = 1.0 / rate;
    for (std::uint64_t p = 0; p < n; ++p) {
      const double t = start_s + static_cast<double>(p) * gap_s +
                       (rng.next_double() - 0.5) * gap_s * 0.1;
      out.push_back({static_cast<std::uint64_t>(std::max(0.0, t) * 1e9), a.key,
                     kAttackPacketLen});
    }
    // Jitter is a tenth of the gap, so an attacker's packets stay in
    // generation order and its threshold-th packet is known here.
    a.truth_cross_ns =
        out[out.size() - n + static_cast<std::uint64_t>(kHhThreshold) - 1]
            .timestamp_ns;
    attackers.push_back(a);
  }
  std::sort(out.begin(), out.end(), by_time);
  return out;
}

FlowCounts count_flows(const std::vector<PacketRecord>& packets) {
  FlowCounts truth;
  truth.reserve(packets.size() / 16);
  for (const auto& p : packets) ++truth[p.key];
  return truth;
}

/// Every flow with >= kElephantPackets true packets now appears to come
/// from one NAT gateway: roughly half of all packets share a source IP.
void readdress_elephants(Workload& w) {
  const auto nat = [](FlowKey k) {
    k.src_ip = kNatIp;
    return k;
  };
  for (auto& p : w.packets) {
    if (w.truth.at(p.key) >= kElephantPackets) p.key = nat(p.key);
  }
  for (auto& a : w.attackers) {
    if (w.truth.at(a.key) >= kElephantPackets) a.key = nat(a.key);
  }
  FlowCounts remapped;
  remapped.reserve(w.truth.size());
  for (const auto& [key, count] : w.truth) {
    remapped[count >= kElephantPackets ? nat(key) : key] += count;
  }
  w.truth = std::move(remapped);
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "caida" || name == "skew" || name == "live";
}

Workload make_workload(const std::string& name, double scale,
                       std::uint64_t seed) {
  if (!is_workload(name)) {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected caida, skew or live)");
  }
  if (!(scale > 0 && scale <= 1)) {
    throw std::invalid_argument("scale must be in (0, 1]");
  }
  const auto config = instameasure::trace::caida_like_config(scale, seed);
  Workload w;
  w.name = name;
  w.packets = instameasure::trace::generate(config).packets;
  auto attack = make_attackers(scale, seed, config.duration_s, w.attackers);
  // One merge of the pre-sorted attack vector instead of a full re-sort per
  // attacker (inject_attack's cost, minutes for 200 attackers).
  const auto mid = static_cast<std::ptrdiff_t>(w.packets.size());
  w.packets.insert(w.packets.end(), attack.begin(), attack.end());
  attack = {};
  std::inplace_merge(w.packets.begin(), w.packets.begin() + mid,
                     w.packets.end(), by_time);

  w.truth = count_flows(w.packets);
  if (name == "skew") readdress_elephants(w);

  if (name == "live") {
    w.loop = Loop::kOpen;
    const double span_s =
        static_cast<double>(w.packets.back().timestamp_ns -
                            w.packets.front().timestamp_ns) / 1e9;
    w.speed = kLiveOfferedPps * span_s / static_cast<double>(w.packets.size());
  }
  return w;
}

}  // namespace bench
