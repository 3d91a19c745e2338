// io_bench: source-fed engine benchmark — the BENCH harness for the packet
// I/O plane.
//
// Where bench_trajectory times the engine against a preloaded in-memory
// pool, io_bench drives MultiCoreEngine::run_source from a real
// PacketSource — a live AF_PACKET socket (paired with tools/pktgen on the
// other end of a veth), a pcap savefile, or the in-memory replayer as the
// privilege-free baseline — and writes one schema-v3 BENCH_*.json document
// whose per-run `source` tag and `io` block record how the packets reached
// the engine: sustained Mpps beside kernel drops, undecodable frames, and
// fragment/truncation repairs.
//
// Usage: io_bench [--source replay|pcap|afpacket] [--interface IF]
//                 [--pcap FILE] [--workers N] [--packets N]
//                 [--max-seconds S] [--policy block|droptail|shed] [--pace]
//                 [--speed X] [--scale S] [--seed N] [--l1-mb N]
//                 [--wsaf-log2 N] [--out FILE] [--git-sha SHA] [--smoke]
//
//   afpacket needs CAP_NET_RAW; without it the tool reports the socket
//   error and exits 1 (replay/pcap run anywhere). --smoke shrinks the
//   replay workload to a seconds-long CI configuration.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/trajectory.h"
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
  std::string out = "BENCH_io.json";
  std::string git_sha;
};

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "io_bench: %s\n"
               "usage: io_bench [--source replay|pcap|afpacket] "
               "[--interface IF] [--pcap FILE] [--workers N] [--packets N] "
               "[--max-seconds S] [--policy block|droptail|shed] [--pace] "
               "[--speed X] [--scale S] [--seed N] [--l1-mb N] "
               "[--wsaf-log2 N] [--out FILE] [--git-sha SHA] [--smoke]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const char* env_sha = std::getenv("IM_GIT_SHA");
  if (env_sha != nullptr) opt.git_sha = env_sha;
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
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--git-sha") {
      opt.git_sha = next();
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
  if (opt.source == "afpacket" && opt.packets == 0 && opt.max_seconds <= 0) {
    usage_error("a live source needs --packets or --max-seconds to stop");
  }
  if (!std::isfinite(opt.speed) || opt.speed <= 0) {
    usage_error("--speed must be a finite number > 0");
  }
  if (opt.workers == 0 || opt.l1_mb == 0 || opt.scale <= 0 || opt.scale > 1) {
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

  // Build the source. The replay workload also parameterizes the meta
  // block; file/live sources leave those fields 0 (they describe the
  // engine, not a synthetic population).
  trace::Trace replay_trace;
  std::unique_ptr<netio::PacketSource> source;
  std::uint64_t meta_flows = 0;
  try {
    if (opt.source == "replay") {
      const auto config = trace::caida_like_config(opt.scale, opt.seed);
      replay_trace = trace::generate(config);
      meta_flows = config.mice.n_flows;
      for (const auto& tier : config.tiers) meta_flows += tier.count;
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
  const auto source_stats = source->stats();

  analysis::TrajectoryRun run;
  run.name = "io_" + opt.source;
  run.mode = config.batched ? "batch" : "scalar";
  run.source = stats.source;
  run.batch = 64;  // worker burst size
  run.packets = stats.packets;
  run.elapsed_s = stats.wall_seconds;
  run.mpps = stats.mpps;
  run.perf_available = false;
  run.perf_error = "run_source harness does not scope perf counters";
  run.io.enabled = true;
  run.io.received = stats.packets;
  run.io.kernel_dropped = stats.io_kernel_dropped;
  run.io.skipped = stats.io_skipped;
  run.io.fragments = stats.io_fragments;
  run.io.truncated = stats.io_truncated;
  run.io.bursts = source_stats.bursts;
  run.io.wait_cycles = stats.io_wait_cycles;

  analysis::TrajectoryMeta meta;
  meta.created_utc = analysis::utc_timestamp_now();
  meta.git_sha = opt.git_sha.empty() ? "unknown" : opt.git_sha;
  meta.host = analysis::collect_host_info();
  meta.l1_memory_bytes = opt.l1_mb * 1024 * 1024;
  meta.wsaf_log2_entries = opt.wsaf_log2;
  meta.flows = meta_flows;
  meta.packets_per_run = stats.packets;
  meta.seed = opt.seed;

  const auto json = analysis::build_trajectory_json(
      meta, std::span<const analysis::TrajectoryRun>{&run, 1});
  std::string err;
  if (!analysis::validate_trajectory_json(json, &err)) {
    std::fprintf(stderr,
                 "io_bench: emitted document failed self-validation: %s\n",
                 err.c_str());
    return 1;
  }
  std::ofstream out_file{opt.out, std::ios::binary};
  if (!out_file || !(out_file << json)) {
    std::fprintf(stderr, "io_bench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
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
  std::printf("wrote %s (schema v%d)\n", opt.out.c_str(),
              analysis::kTrajectorySchemaVersion);
  return 0;
}
