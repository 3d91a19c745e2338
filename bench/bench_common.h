// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary accepts:
//   --scale=<f>   trace scale factor (flow counts), default per bench
//   --seed=<n>    trace seed
// and prints a paper-style table plus a SHAPE-CHECK verdict line so the
// regenerated result can be compared against the paper's claim at a glance
// (see EXPERIMENTS.md for the side-by-side record).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

#include "analysis/report.h"
#include "telemetry/export.h"
#include "trace/generator.h"
#include "util/cli.h"
#include "util/format.h"

namespace instameasure::bench {

inline void print_header(const char* figure, const char* claim) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("Paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

inline void print_trace_summary(const trace::Trace& trace) {
  std::printf("workload: %s — %s packets, %.1f s, avg %s, %s\n",
              trace.name.c_str(),
              util::format_count(trace.packets.size()).c_str(),
              trace.duration_s(), util::format_rate(trace.average_pps()).c_str(),
              util::format_bytes(trace.total_bytes()).c_str());
}

inline void shape_check(bool ok, const std::string& what) {
  std::printf("SHAPE-CHECK %s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
}

/// Append the registry's final state as one JSON line, fenced so log
/// scrapers (and EXPERIMENTS.md tooling) can lift the machine-readable
/// record out of the human-readable table above it.
inline void print_metrics_json(const telemetry::Registry& registry) {
  std::printf("METRICS-JSON %s\n",
              telemetry::to_json(registry.snapshot()).c_str());
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace instameasure::bench
