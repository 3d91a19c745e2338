// pktgen: standalone load generator for the packet I/O plane.
//
// Builds a flow schedule with the synthetic trace generator (Zipf-skewed
// population, per-flow active windows, optional injected attack — the same
// machinery the benches replay in memory), encodes each record as a real
// Ethernet/IPv4/L4 frame, and transmits it either onto a live interface
// through an AF_PACKET socket or into a pcap savefile. A token bucket
// paces transmission at a configured packet rate so the receive side (an
// AfPacketSource-fed engine, see tools/io_bench) can be driven at a known
// offered load; unpaced mode pushes as fast as the socket accepts to find
// the drop edge.
//
// Usage: pktgen (--interface IF | --pcap-out FILE)
//               [--rate PPS] [--burst N] [--count N] [--repeat N] [--churn]
//               [--scale S] [--duration SEC] [--flows N] [--zipf ALPHA]
//               [--attack-pps N] [--vlan ID] [--seed N] [--quiet]
//
//   --rate 0 (default) transmits unpaced. --repeat N replays the schedule
//   N times; with --churn each repetition re-keys every flow (fresh
//   population = flow churn for WSAF replacement studies). Live TX needs
//   CAP_NET_RAW; without it the tool reports the socket error and exits 1.
//   Every number flag must be finite; nan, inf or an out-of-range value
//   is a usage error (exit 2).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netio/afpacket.h"
#include "netio/codec.h"
#include "netio/pcap.h"
#include "trace/generator.h"
#include "util/format.h"

using namespace instameasure;

namespace {

struct Options {
  std::string interface;
  std::string pcap_out;
  double rate_pps = 0;       ///< 0 = unpaced
  double burst = 64;         ///< token bucket capacity
  std::uint64_t count = 0;   ///< 0 = whole schedule (x repeats)
  unsigned repeat = 1;
  bool churn = false;
  double scale = 0.01;
  double duration_s = 0;     ///< 0 = generator default
  std::uint64_t flows = 0;   ///< 0 = generator default
  double zipf_alpha = 0;     ///< 0 = generator default
  double attack_pps = 0;
  std::uint16_t vlan = 0;
  std::uint64_t seed = 42;
  bool quiet = false;
};

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "pktgen: %s\n"
               "usage: pktgen (--interface IF | --pcap-out FILE) "
               "[--rate PPS] [--burst N] [--count N] [--repeat N] [--churn] "
               "[--scale S] [--duration SEC] [--flows N] [--zipf ALPHA] "
               "[--attack-pps N] [--vlan ID] [--seed N] [--quiet]\n",
               msg);
  std::exit(2);
}

/// L4 payload length that reproduces the record's wire length once the
/// frame headers are added back (floored at 0 — encode_frame pads tiny
/// frames to the Ethernet minimum anyway).
std::size_t payload_len_for(const netio::PacketRecord& rec,
                            std::uint16_t vlan) {
  std::size_t overhead = netio::kEthHeaderLen + netio::kIpv4MinHeaderLen;
  if (vlan != 0) overhead += 4;
  switch (rec.key.proto) {
    case 6: overhead += netio::kTcpMinHeaderLen; break;
    case 17: overhead += netio::kUdpHeaderLen; break;
    default: overhead += netio::kIcmpMinLen; break;
  }
  return rec.wire_len > overhead ? rec.wire_len - overhead : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--interface") {
      opt.interface = next();
    } else if (arg == "--pcap-out") {
      opt.pcap_out = next();
    } else if (arg == "--rate") {
      opt.rate_pps = std::strtod(next(), nullptr);
    } else if (arg == "--burst") {
      opt.burst = std::strtod(next(), nullptr);
    } else if (arg == "--count") {
      opt.count = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--repeat") {
      opt.repeat = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--churn") {
      opt.churn = true;
    } else if (arg == "--scale") {
      opt.scale = std::strtod(next(), nullptr);
    } else if (arg == "--duration") {
      opt.duration_s = std::strtod(next(), nullptr);
    } else if (arg == "--flows") {
      opt.flows = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--zipf") {
      opt.zipf_alpha = std::strtod(next(), nullptr);
    } else if (arg == "--attack-pps") {
      opt.attack_pps = std::strtod(next(), nullptr);
    } else if (arg == "--vlan") {
      opt.vlan = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help");
    } else {
      usage_error(("unknown flag " + arg).c_str());
    }
  }
  if (opt.interface.empty() == opt.pcap_out.empty()) {
    usage_error("exactly one of --interface / --pcap-out is required");
  }
  if (!(std::isfinite(opt.scale) && opt.scale > 0 && opt.scale <= 1)) {
    usage_error("--scale must be a finite number in (0, 1]");
  }
  if (!(std::isfinite(opt.rate_pps) && opt.rate_pps >= 0)) {
    usage_error("--rate must be a finite number >= 0");
  }
  if (!(std::isfinite(opt.burst) && opt.burst >= 1)) {
    usage_error("--burst must be a finite number >= 1");
  }
  if (!(std::isfinite(opt.duration_s) && opt.duration_s >= 0)) {
    usage_error("--duration must be a finite number >= 0");
  }
  if (!(std::isfinite(opt.zipf_alpha) && opt.zipf_alpha >= 0)) {
    usage_error("--zipf must be a finite number >= 0");
  }
  if (!(std::isfinite(opt.attack_pps) && opt.attack_pps >= 0)) {
    usage_error("--attack-pps must be a finite number >= 0");
  }
  if (opt.repeat == 0) usage_error("--repeat must be >= 1");
  if (opt.vlan > 4095) usage_error("--vlan must be <= 4095");

  auto config = trace::caida_like_config(opt.scale, opt.seed);
  if (opt.duration_s > 0) config.duration_s = opt.duration_s;
  if (opt.flows != 0) config.mice.n_flows = opt.flows;
  if (opt.zipf_alpha > 0) config.mice.alpha = opt.zipf_alpha;
  auto schedule = trace::generate(config);
  if (opt.attack_pps > 0) {
    trace::AttackSpec spec;
    spec.rate_pps = opt.attack_pps;
    spec.duration_s = config.duration_s;
    spec.seed = opt.seed + 1;
    trace::inject_attack(schedule, spec);
  }
  if (schedule.packets.empty()) usage_error("empty schedule");

  // Sinks: exactly one is live per invocation.
  std::unique_ptr<netio::AfPacketSink> sock;
  std::unique_ptr<netio::PcapWriter> pcap;
  if (!opt.interface.empty()) {
    sock = std::make_unique<netio::AfPacketSink>(opt.interface);
    if (!sock->available()) {
      std::fprintf(stderr, "pktgen: %s unavailable: %s\n",
                   opt.interface.c_str(), sock->error().c_str());
      return 1;
    }
  } else {
    try {
      pcap = std::make_unique<netio::PcapWriter>(opt.pcap_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pktgen: %s\n", e.what());
      return 1;
    }
  }

  if (!opt.quiet) {
    std::printf("pktgen: %zu packets/schedule x%u%s -> %s, rate %s\n",
                schedule.packets.size(), opt.repeat,
                opt.churn ? " (churn)" : "",
                opt.interface.empty() ? opt.pcap_out.c_str()
                                      : opt.interface.c_str(),
                opt.rate_pps > 0 ? util::format_rate(opt.rate_pps).c_str()
                                 : "unpaced");
  }

  // Token bucket: `tokens` refills at rate_pps, capped at `burst`; each
  // transmitted frame spends one. Unpaced mode skips the wait entirely.
  const auto start = std::chrono::steady_clock::now();
  double tokens = opt.burst;
  auto last_refill = start;
  std::uint64_t sent = 0, failures = 0;
  bool stop = false;
  for (unsigned rep = 0; rep < opt.repeat && !stop; ++rep) {
    // Churn: a fresh population each repetition — same schedule shape,
    // disjoint keys — so long runs continuously retire and admit flows.
    const std::uint32_t salt =
        opt.churn ? static_cast<std::uint32_t>(rep + 1) * 0x9e3779b9u : 0;
    for (const auto& rec : schedule.packets) {
      if (opt.count != 0 && sent + failures >= opt.count) {
        stop = true;
        break;
      }
      if (opt.rate_pps > 0) {
        for (;;) {
          const auto now = std::chrono::steady_clock::now();
          tokens += std::chrono::duration<double>(now - last_refill).count() *
                    opt.rate_pps;
          if (tokens > opt.burst) tokens = opt.burst;
          last_refill = now;
          if (tokens >= 1) break;
          // Far from the next token: sleep; close: spin for precision.
          const double deficit = (1 - tokens) / opt.rate_pps;
          if (deficit > 100e-6) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(deficit / 2));
          }
        }
        tokens -= 1;
      }
      auto key = rec.key;
      key.src_ip ^= salt;
      const auto frame =
          netio::encode_frame(key, payload_len_for(rec, opt.vlan), opt.vlan);
      if (sock) {
        sock->send(frame) ? ++sent : ++failures;
      } else {
        pcap->write(rec.timestamp_ns, frame,
                    static_cast<std::uint32_t>(frame.size()));
        ++sent;
      }
    }
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (!opt.quiet) {
    std::printf("pktgen: sent %llu, failed %llu in %.3f s (%.0f pps)\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(failures), elapsed,
                elapsed > 0 ? static_cast<double>(sent) / elapsed : 0.0);
  }
  return failures == 0 ? 0 : 1;
}
