// Campus gateway monitor: the paper's 113-hour deployment (§IV.B, §V.D)
// in miniature — continuous measurement at a mirrored uplink with periodic
// top-K reports, WSAF garbage collection of idle flows, and overhead
// telemetry, all on one worker core.
//
// Usage: ./examples/campus_gateway [--minutes=4] [--workers=2] [--scale=0.05]
//                                  [--replay capture.imtrace]
//
// --replay monitors a recorded uplink trace (trace_io format) instead of
// the synthetic diurnal one; an unreadable or truncated file exits 1 with
// a one-line diagnostic.
#include <cstdio>
#include <exception>
#include <string>

#include "analysis/ground_truth.h"
#include "runtime/multicore.h"
#include "telemetry/export.h"
#include "telemetry/reporter.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
#include "util/cli.h"
#include "util/format.h"

using namespace instameasure;

int main(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const double minutes = args.get_double("minutes", 4);
  const auto workers = static_cast<unsigned>(args.get_int("workers", 2));
  const double scale = args.get_double("scale", 0.05);
  const std::string metrics_path =
      args.get("metrics", "campus_gateway_metrics.prom");

  std::printf("=== campus gateway monitor (%.0f compressed 'days') ===\n",
              4.0);

  trace::Trace trace;
  if (const std::string replay_path = args.get("replay", "");
      !replay_path.empty()) {
    try {
      trace = trace::load_trace(replay_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campus_gateway: %s: %s\n", replay_path.c_str(),
                   e.what());
      return 1;
    }
    if (trace.packets.empty()) {
      std::fprintf(stderr, "campus_gateway: %s: trace holds no packets\n",
                   replay_path.c_str());
      return 1;
    }
  } else {
    trace = trace::generate(trace::campus_config(scale, minutes * 60.0, 11));
  }
  std::printf("uplink replay: %s packets / %s over %.0f min (diurnal)\n\n",
              util::format_count(trace.packets.size()).c_str(),
              util::format_bytes(trace.total_bytes()).c_str(), minutes);

  // Deployment config: paper's 128KB sketch + 2^20 WSAF, plus inline GC of
  // flows idle for more than one 'hour' of compressed trace time.
  runtime::MultiCoreConfig config;
  config.workers = workers;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 20;
  config.engine.wsaf.idle_timeout_ns =
      static_cast<std::uint64_t>(minutes * 60.0 / 8.0 * 1e9);
  runtime::MultiCoreEngine engine{config};

  // Scrape target: a reporter thread rewrites the Prometheus textfile every
  // 250 ms while the replay runs, exactly like a node_exporter textfile
  // collector deployment would consume it.
  telemetry::ReporterConfig reporter_config;
  reporter_config.interval = std::chrono::milliseconds{250};
  reporter_config.path = metrics_path;
  telemetry::SnapshotReporter reporter{engine.registry(), reporter_config};
  reporter.start();

  // Replay an epoch at a time so we can emit the periodic report the
  // operators of the real deployment would watch.
  const std::size_t epochs = 4;
  const std::size_t chunk = trace.packets.size() / epochs;
  for (std::size_t e = 0; e < epochs; ++e) {
    trace::Trace slice;
    slice.name = "epoch";
    const auto begin = trace.packets.begin() + static_cast<long>(e * chunk);
    const auto end = e + 1 == epochs ? trace.packets.end()
                                     : begin + static_cast<long>(chunk);
    slice.packets.assign(begin, end);
    const auto stats = engine.run(slice);

    std::printf("--- epoch %zu: %s at %.1f Mpps ---\n", e + 1,
                util::format_count(slice.packets.size()).c_str(), stats.mpps);
    std::printf("    top-3 byte flows:\n");
    for (const auto& item : engine.top_k_bytes(3)) {
      std::printf("      %-46s %s\n", item.key.to_string().c_str(),
                  util::format_bytes(static_cast<std::uint64_t>(item.bytes))
                      .c_str());
    }
    std::size_t occupancy = 0;
    std::uint64_t evictions = 0, gc = 0;
    double regulation = 0;
    for (unsigned w = 0; w < engine.workers(); ++w) {
      occupancy += engine.engine(w).wsaf().occupancy();
      evictions += engine.engine(w).wsaf().stats().evictions;
      gc += engine.engine(w).wsaf().stats().gc_reclaims;
      regulation += engine.engine(w).regulator().regulation_rate();
    }
    std::printf(
        "    wsaf: %s flows resident, %llu evictions, %llu gc reclaims; "
        "regulation %.2f%%\n",
        util::format_count(occupancy).c_str(),
        static_cast<unsigned long long>(evictions),
        static_cast<unsigned long long>(gc),
        100 * regulation / engine.workers());
  }

  // End-of-deployment accuracy audit against the recorded trace (the paper
  // recorded every packet to disk for exactly this comparison).
  const analysis::GroundTruth truth{trace};
  double total_err = 0;
  std::size_t n = 0;
  for (const auto& [key, t] : truth.flows()) {
    if (t.packets < 10'000) continue;
    const auto est = engine.query(key);
    total_err += std::abs(est.packets - static_cast<double>(t.packets)) /
                 static_cast<double>(t.packets);
    ++n;
  }
  std::printf("\naudit: mean |error| over %zu flows >=10K packets: %.2f%%\n",
              n, n ? 100 * total_err / static_cast<double>(n) : 0.0);
  std::printf("memory: %s sketch per worker + %s WSAF logical per worker\n",
              util::format_bytes(
                  config.engine.regulator.total_memory_bytes())
                  .c_str(),
              util::format_bytes(
                  engine.engine(0).wsaf().logical_memory_bytes())
                  .c_str());

  // Final snapshot + excerpt of what a scraper sees.
  reporter.stop();
  std::printf("\nmetrics: %llu snapshots written to %s; excerpt:\n",
              static_cast<unsigned long long>(reporter.snapshots_written()),
              metrics_path.c_str());
  const auto text = telemetry::to_prometheus(engine.registry().snapshot());
  std::size_t printed = 0, pos = 0;
  while (pos < text.size() && printed < 12) {
    const auto nl = text.find('\n', pos);
    const auto line = text.substr(pos, nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    if (line.starts_with("im_runtime_") || line.starts_with("im_wsaf_")) {
      std::printf("    %s\n", line.c_str());
      ++printed;
    }
  }
  return 0;
}
