// bench_trajectory: the perf-trajectory harness.
//
// Runs the fixed workload matrix — scalar, batch=8, batch=32, batch=64 —
// over the same DRAM-resident workload as bench/bench_micro.cpp (512 MB L1
// sketch, 2^23 distinct flows, fixed seeds) and writes one schema-versioned
// BENCH_*.json document (analysis/trajectory.h): throughput, run-level
// hardware counters, per-stage counters sampled by the PerfStageProfiler,
// git sha, host info. Where perf_event_open is denied (containers, locked
// perf_event_paranoid, no PMU) every counter field is the literal string
// "unavailable" and the tool still exits 0 — throughput trajectories stay
// comparable across hosts, counter trajectories only where the PMU is real.
//
// Usage: bench_trajectory [--out FILE] [--packets N] [--l1-mb N]
//                         [--flows-log2 N] [--wsaf-log2 N]
//                         [--sample-shift N] [--git-sha SHA] [--smoke]
//   --smoke shrinks the matrix to a seconds-long CI/ctest configuration
//   (4 MB sketch, 2^16 flows); trajectory documents from smoke runs are
//   for schema validation, not perf comparison.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "analysis/trajectory.h"
#include "core/instameasure.h"
#include "telemetry/perf_counters.h"
#include "util/rng.h"

using namespace instameasure;

namespace {

struct Options {
  std::string out = "BENCH_trajectory.json";
  std::string git_sha;
  std::uint64_t packets = 1ull << 24;  ///< timed packets per matrix cell
  std::size_t l1_mb = 512;
  unsigned flows_log2 = 23;
  unsigned wsaf_log2 = 20;
  unsigned sample_shift = 4;
  std::uint64_t pool_seed = 4;  ///< matches bench_micro's packet pool
};

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "bench_trajectory: %s\n"
               "usage: bench_trajectory [--out FILE] [--packets N] "
               "[--l1-mb N] [--flows-log2 N] [--wsaf-log2 N] "
               "[--sample-shift N] [--git-sha SHA] [--smoke]\n",
               msg);
  std::exit(2);
}

netio::FlowKey key_from(std::uint64_t v) {
  return netio::FlowKey{static_cast<std::uint32_t>(v),
                        static_cast<std::uint32_t>(v >> 32),
                        static_cast<std::uint16_t>(v >> 16),
                        static_cast<std::uint16_t>(v >> 48), 6};
}

std::vector<netio::PacketRecord> make_pool(const Options& opt) {
  util::SplitMix64 seeds{opt.pool_seed};
  std::vector<netio::PacketRecord> packets(1ull << opt.flows_log2);
  for (auto& p : packets) {
    p.key = key_from(seeds());
    p.wire_len = 500;
  }
  return packets;
}

core::EngineConfig engine_config(const Options& opt) {
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = opt.l1_mb * 1024 * 1024;
  config.wsaf.log2_entries = opt.wsaf_log2;
  return config;
}

/// One matrix cell: fresh engine, one warmup pass over the pool (prime the
/// sketch pages), then `opt.packets` timed packets. `batch` 0 = scalar.
analysis::TrajectoryRun run_cell(const Options& opt,
                                 std::span<netio::PacketRecord> pool,
                                 std::size_t batch) {
  analysis::TrajectoryRun run;
  run.batch = batch;
  run.mode = batch == 0 ? "scalar" : "batch";
  run.name = batch == 0 ? "scalar" : "batch" + std::to_string(batch);
  run.packets = opt.packets;

  // Stage attribution rides the batched pipeline only; the profiler must
  // live on this (the processing) thread.
  telemetry::PerfProfilerConfig perf_config;
  perf_config.sample_shift = opt.sample_shift;
  telemetry::PerfStageProfiler profiler{perf_config};

  auto config = engine_config(opt);
  if (batch != 0) config.perf = &profiler;
  // Audit rides every cell: the accuracy block must describe the same
  // run the Mpps number came from, and a uniform <3% cost keeps the cells
  // mutually comparable. The 1/256 default slice holds the shadow map to
  // a few hundred flows even at 2^23.
  config.enable_audit = true;
  core::InstaMeasure engine{config};

  const std::size_t mask = pool.size() - 1;
  std::uint64_t now = 0;

  // Warmup: one pass over every pool entry, same mode as the timed loop.
  if (batch == 0) {
    for (auto& p : pool) {
      p.timestamp_ns = ++now;
      engine.process(p);
    }
  } else {
    for (std::size_t off = 0; off < pool.size(); off += batch) {
      const std::span<netio::PacketRecord> slice{&pool[off], batch};
      for (auto& p : slice) p.timestamp_ns = ++now;
      engine.process_batch(slice);
    }
  }

  // Run-level counters: one group + one scope around the timed region.
  // (Its own group, not the profiler's: scalar runs have no profiler, and
  // the whole-region delta also covers unsampled chunks.)
  telemetry::PerfCounterGroup group;
  run.perf_available = group.available();
  run.perf_error = group.error();

  const auto start = std::chrono::steady_clock::now();
  {
    telemetry::PerfScope scope{group, &run.counters};
    if (batch == 0) {
      std::size_t i = 0;
      for (std::uint64_t n = 0; n < opt.packets; ++n) {
        auto& p = pool[++i & mask];
        p.timestamp_ns = ++now;
        engine.process(p);
      }
    } else {
      std::size_t off = 0;
      for (std::uint64_t n = 0; n < opt.packets; n += batch) {
        const std::span<netio::PacketRecord> slice{&pool[off], batch};
        for (auto& p : slice) p.timestamp_ns = ++now;
        engine.process_batch(slice);
        off = (off + batch) & mask;
      }
    }
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);
  run.elapsed_s = elapsed.count();
  run.mpps = run.elapsed_s > 0
                 ? static_cast<double>(opt.packets) / run.elapsed_s / 1e6
                 : 0;

  if (batch != 0 && profiler.available()) {
    run.sampled_packets = profiler.sampled_packets();
    run.sampled_chunks = profiler.sampled_chunks();
    for (unsigned s = 0; s < telemetry::kPerfStageCount; ++s) {
      const auto stage = static_cast<telemetry::PerfStage>(s);
      const auto& totals = profiler.stage_totals(stage);
      if (totals.samples == 0) continue;
      run.stages.push_back({to_string(stage), totals});
    }
  }

  if (const auto* auditor = engine.auditor()) {
    // Make the streaming gauges end-of-run exact before snapshotting, so
    // committed BENCH documents carry the same numbers an offline
    // analysis::metrics pass would.
    engine.audit_final_sweep();
    const auto s = auditor->summary();
    run.accuracy.enabled = true;
    run.accuracy.sample_shift = auditor->config().sample_shift;
    run.accuracy.sampled_flows = s.sampled_flows;
    run.accuracy.sampled_packets = s.sampled_packets;
    run.accuracy.comparisons = s.comparisons;
    run.accuracy.are = s.are;
    run.accuracy.mean_rel_bias = s.mean_rel_bias;
    run.accuracy.recall = s.recall;
    run.accuracy.precision = s.precision;
    run.accuracy.true_hh = s.true_hh;
    run.accuracy.undercount = s.undercount;
    run.accuracy.overcount = s.overcount;
    run.accuracy.cause_sketch_residual =
        s.causes[static_cast<unsigned>(audit::Cause::kSketchResidual)];
    run.accuracy.cause_wsaf_eviction =
        s.causes[static_cast<unsigned>(audit::Cause::kWsafEviction)];
    run.accuracy.cause_shed_compensation =
        s.causes[static_cast<unsigned>(audit::Cause::kShedCompensation)];
  }
  return run;
}

void print_summary(const analysis::TrajectoryRun& run) {
  std::printf("  %-8s %9.3f Mpps  (%.2f s)", run.name.c_str(), run.mpps,
              run.elapsed_s);
  const auto& miss = run.counters[telemetry::PerfCounterId::kLlcLoadMisses];
  if (miss.available && run.packets > 0) {
    std::printf("  llc-miss/pkt %.3f",
                miss.value / static_cast<double>(run.packets));
  } else {
    std::printf("  counters unavailable");
  }
  std::printf("\n");
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
    if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--packets") {
      opt.packets = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--l1-mb") {
      opt.l1_mb = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--flows-log2") {
      opt.flows_log2 = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--wsaf-log2") {
      opt.wsaf_log2 = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--sample-shift") {
      opt.sample_shift =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--git-sha") {
      opt.git_sha = next();
    } else if (arg == "--smoke") {
      opt.l1_mb = 4;
      opt.flows_log2 = 16;
      opt.wsaf_log2 = 14;
      opt.packets = 1ull << 19;
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help");
    } else {
      usage_error(("unknown flag " + arg).c_str());
    }
  }
  if (opt.packets == 0 || opt.flows_log2 == 0 || opt.flows_log2 > 28 ||
      opt.l1_mb == 0) {
    usage_error("invalid workload configuration");
  }

  analysis::TrajectoryMeta meta;
  meta.created_utc = analysis::utc_timestamp_now();
  meta.git_sha = opt.git_sha.empty() ? "unknown" : opt.git_sha;
  meta.host = analysis::collect_host_info();
  meta.l1_memory_bytes = opt.l1_mb * 1024 * 1024;
  meta.wsaf_log2_entries = opt.wsaf_log2;
  meta.flows = 1ull << opt.flows_log2;
  meta.packets_per_run = opt.packets;
  meta.seed = opt.pool_seed;
  meta.sample_shift = opt.sample_shift;

  std::printf("bench_trajectory: %zu MB sketch, 2^%u flows, %llu packets "
              "per run (perf %s)\n",
              opt.l1_mb, opt.flows_log2,
              static_cast<unsigned long long>(opt.packets),
              telemetry::kPerfEnabled ? "compiled in" : "compiled out");

  auto pool = make_pool(opt);
  std::vector<analysis::TrajectoryRun> runs;
  for (const std::size_t batch : {std::size_t{0}, std::size_t{8},
                                  std::size_t{32}, std::size_t{64}}) {
    runs.push_back(run_cell(opt, pool, batch));
    print_summary(runs.back());
  }

  const auto json = analysis::build_trajectory_json(meta, runs);
  std::string err;
  if (!analysis::validate_trajectory_json(json, &err)) {
    std::fprintf(stderr, "bench_trajectory: emitted document failed "
                         "self-validation: %s\n", err.c_str());
    return 1;
  }
  std::ofstream out{opt.out, std::ios::binary};
  if (!out || !(out << json)) {
    std::fprintf(stderr, "bench_trajectory: cannot write %s\n",
                 opt.out.c_str());
    return 1;
  }
  std::printf("wrote %s (schema v%d, %zu runs)\n", opt.out.c_str(),
              analysis::kTrajectorySchemaVersion, runs.size());
  return 0;
}
