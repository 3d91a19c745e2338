// io_bench: source-fed engine benchmark for the packet I/O plane.
//
// Drives MultiCoreEngine::run_source from a real PacketSource — a live
// AF_PACKET socket (paired with tools/pktgen on the other end of a veth), a
// pcap savefile, or the in-memory replayer as the privilege-free baseline —
// and prints, as its last stdout line, one JSON result in the repo
// benchmark's shape (benchmark/README.md, "Output"):
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"runtime.throughput_mpps": {"value": V, "unit": "Mpps"}, ...}}
//
// `attempted` is the records the source delivered and `failed` those the
// engine neither processed, queue-dropped nor shed; `correct` is false when
// that accounting does not balance. Metrics reuse the benchmark's names
// where the definitions match, and add the capture plane's counts under
// netio.* (kernel drops, undecodable frames, fragment/truncation repairs).
//
// Usage: io_bench [--source replay|pcap|afpacket] [--interface IF]
//                 [--pcap FILE] [--workers N] [--packets N]
//                 [--max-seconds S] [--policy block|droptail|shed] [--pace]
//                 [--speed X] [--scale S] [--seed N] [--l1-mb N]
//                 [--wsaf-log2 N] [--smoke]
//
//   afpacket needs CAP_NET_RAW; without it the tool reports the socket
//   error and exits 1 (replay/pcap run anywhere). --smoke shrinks the
//   replay workload to a seconds-long CI configuration. Every number flag
//   must be finite. Exit status: 0 when the run's accounting balances, 1
//   when it does not or the run could not start, 2 on a usage error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netio/afpacket.h"
#include "netio/source.h"
#include "runtime/multicore.h"
#include "trace/generator.h"

using namespace instameasure;

namespace {

struct Options {
  std::string source = "replay";
  std::string interface;
  std::string pcap;
  unsigned workers = 4;
  std::uint64_t packets = 0;   ///< run_source cap; 0 = until exhausted
  double max_seconds = 0;
  std::string policy = "block";
  bool pace = false;
  double speed = 1.0;
  double scale = 0.01;         ///< replay workload scale
  std::uint64_t seed = 42;
  std::size_t l1_mb = 64;
  unsigned wsaf_log2 = 18;
};

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values in shortest round-trip form.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, std::span<const Metric> metrics) {
  std::string out = std::string{"{\"correct\": "} +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const auto end =
        std::to_chars(value, value + sizeof value, metrics[i].value).ptr;
    out += (i ? ", \"" : "\"") + std::string{metrics[i].name} +
           "\": {\"value\": " + std::string{value, end} + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "io_bench: %s\n"
               "usage: io_bench [--source replay|pcap|afpacket] "
               "[--interface IF] [--pcap FILE] [--workers N] [--packets N] "
               "[--max-seconds S] [--policy block|droptail|shed] [--pace] "
               "[--speed X] [--scale S] [--seed N] [--l1-mb N] "
               "[--wsaf-log2 N] [--smoke]\n",
               msg);
  std::exit(2);
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
    if (arg == "--source") {
      opt.source = next();
    } else if (arg == "--interface") {
      opt.interface = next();
    } else if (arg == "--pcap") {
      opt.pcap = next();
    } else if (arg == "--workers") {
      opt.workers = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--packets") {
      opt.packets = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--max-seconds") {
      opt.max_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--policy") {
      opt.policy = next();
    } else if (arg == "--pace") {
      opt.pace = true;
    } else if (arg == "--speed") {
      opt.speed = std::strtod(next(), nullptr);
    } else if (arg == "--scale") {
      opt.scale = std::strtod(next(), nullptr);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--l1-mb") {
      opt.l1_mb = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--wsaf-log2") {
      opt.wsaf_log2 = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--smoke") {
      opt.scale = 0.002;
      opt.l1_mb = 4;
      opt.wsaf_log2 = 14;
      opt.workers = 2;
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help");
    } else {
      usage_error(("unknown flag " + arg).c_str());
    }
  }
  if (opt.source != "replay" && opt.source != "pcap" &&
      opt.source != "afpacket") {
    usage_error("--source must be replay, pcap, or afpacket");
  }
  if (opt.source == "pcap" && opt.pcap.empty()) {
    usage_error("--source pcap requires --pcap FILE");
  }
  if (opt.source == "afpacket" && opt.interface.empty()) {
    usage_error("--source afpacket requires --interface IF");
  }
  if (!(std::isfinite(opt.max_seconds) && opt.max_seconds >= 0)) {
    usage_error("--max-seconds must be a finite number >= 0");
  }
  if (!(std::isfinite(opt.speed) && opt.speed > 0)) {
    usage_error("--speed must be a finite number > 0");
  }
  if (!(std::isfinite(opt.scale) && opt.scale > 0 && opt.scale <= 1)) {
    usage_error("--scale must be a finite number in (0, 1]");
  }
  if (opt.source == "afpacket" && opt.packets == 0 && opt.max_seconds == 0) {
    usage_error("a live source needs --packets or --max-seconds to stop");
  }
  if (opt.workers == 0 || opt.l1_mb == 0) {
    usage_error("invalid configuration");
  }
  runtime::OverloadPolicy policy = runtime::OverloadPolicy::kBlock;
  if (opt.policy == "droptail") {
    policy = runtime::OverloadPolicy::kDropTail;
  } else if (opt.policy == "shed") {
    policy = runtime::OverloadPolicy::kShed;
  } else if (opt.policy != "block") {
    usage_error("--policy must be block, droptail, or shed");
  }

  trace::Trace replay_trace;
  std::unique_ptr<netio::PacketSource> source;
  try {
    if (opt.source == "replay") {
      replay_trace =
          trace::generate(trace::caida_like_config(opt.scale, opt.seed));
      netio::ReplaySource::Config rc;
      rc.pace_by_timestamps = opt.pace;
      rc.speed = opt.speed;
      source = std::make_unique<netio::ReplaySource>(
          std::span<const netio::PacketRecord>{replay_trace.packets}, rc);
    } else if (opt.source == "pcap") {
      source = std::make_unique<netio::PcapFileSource>(opt.pcap);
    } else {
      netio::AfPacketConfig ac;
      ac.interface = opt.interface;
      auto af = std::make_unique<netio::AfPacketSource>(ac);
      if (!af->available()) {
        std::fprintf(stderr, "io_bench: %s unavailable: %s\n",
                     opt.interface.c_str(), af->error().c_str());
        return 1;
      }
      source = std::move(af);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "io_bench: %s\n", e.what());
    return 1;
  }

  runtime::MultiCoreConfig config;
  config.workers = opt.workers;
  config.engine.regulator.l1_memory_bytes = opt.l1_mb * 1024 * 1024;
  config.engine.wsaf.log2_entries = opt.wsaf_log2;
  config.overload.policy = policy;
  runtime::MultiCoreEngine engine{config};

  runtime::SourceRunConfig run_config;
  run_config.max_packets = opt.packets;
  run_config.max_seconds = opt.max_seconds;
  std::printf("io_bench: source=%s workers=%u policy=%s\n",
              opt.source.c_str(), opt.workers, opt.policy.c_str());
  runtime::RunStats stats;
  try {
    stats = engine.run_source(*source, run_config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "io_bench: %s\n", e.what());
    return 1;
  }
  const auto bursts = source->stats().bursts;

  const std::uint64_t accounted = stats.processed + stats.dropped + stats.shed;
  const bool correct = accounted == stats.packets;
  const std::uint64_t failed =
      stats.packets > accounted ? stats.packets - accounted : 0;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const Metric metrics[] = {
      {"runtime.throughput_mpps", "Mpps", stats.mpps},
      {"runtime.producer_stalls_per_kpkt", "count",
       ratio(count(stats.producer_stalls) * 1e3, count(stats.processed))},
      {"runtime.worker_share_max", "ratio",
       ratio(count(*std::max_element(stats.per_worker_packets.begin(),
                                     stats.per_worker_packets.end())),
             count(stats.processed))},
      {"runtime.worker_busy_min", "ratio",
       *std::min_element(stats.worker_busy_fraction.begin(),
                         stats.worker_busy_fraction.end())},
      {"runtime.queue_depth_max", "count",
       count(*std::max_element(stats.max_queue_depth.begin(),
                               stats.max_queue_depth.end()))},
      {"runtime.dropped", "count", count(stats.dropped)},
      {"runtime.shed", "count", count(stats.shed)},
      {"netio.burst_records_mean", "count",
       ratio(count(stats.packets), count(bursts))},
      {"netio.received", "count", count(stats.packets)},
      {"netio.kernel_dropped", "count", count(stats.io_kernel_dropped)},
      {"netio.skipped", "count", count(stats.io_skipped)},
      {"netio.fragments", "count", count(stats.io_fragments)},
      {"netio.truncated", "count", count(stats.io_truncated)},
  };

  std::printf(
      "io_bench: %llu packets in %.3f s (%.3f Mpps), processed %llu, "
      "queue-dropped %llu, shed %llu, kernel-dropped %llu, skipped %llu "
      "(fragments %llu, truncated %llu)\n",
      static_cast<unsigned long long>(stats.packets), stats.wall_seconds,
      stats.mpps, static_cast<unsigned long long>(stats.processed),
      static_cast<unsigned long long>(stats.dropped),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.io_kernel_dropped),
      static_cast<unsigned long long>(stats.io_skipped),
      static_cast<unsigned long long>(stats.io_fragments),
      static_cast<unsigned long long>(stats.io_truncated));
  std::printf("%s\n",
              result_line(correct, stats.packets, failed, metrics).c_str());
  return correct ? 0 : 1;
}
