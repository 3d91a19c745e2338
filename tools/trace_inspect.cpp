// trace_inspect: offline viewer for flight-recorder spools.
//
// Reads a binary spool (written by TraceCollector::open_spool or
// write_spool) and prints the stage-attribution report — where each
// detection's wall-clock went between packet arrival, regulator
// saturation, WSAF insert, and the alarm — plus optional Chrome
// trace-event JSON for Perfetto / chrome://tracing.
//
// Usage:
//   trace_inspect <spool-file> [--json out.trace.json]
//   trace_inspect --demo [--spool out.imtrc] [--json out.trace.json]
//
// --demo synthesizes a DDoS replay with the flight recorder attached so
// the tool is runnable without a capture.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analysis/latency.h"
#include "analysis/stage_latency.h"
#include "telemetry/trace.h"
#include "trace/generator.h"
#include "util/cli.h"

using namespace instameasure;

namespace {

std::vector<telemetry::TraceEvent> run_demo(const std::string& spool_path) {
  trace::TraceConfig background;
  background.duration_s = 2.0;
  background.tiers = {{4, 4'000, 16'000}};
  background.mice = {20'000, 1.05, 30};
  background.seed = 99;
  auto packets = trace::generate(background);

  std::vector<netio::FlowKey> watched;
  for (int i = 0; i < 3; ++i) {
    trace::AttackSpec spec;
    spec.rate_pps = 25'000.0 * (i + 1);
    spec.start_s = 0.2 + 0.4 * i;
    spec.duration_s = 1.0;
    spec.seed = 5'000 + static_cast<std::uint64_t>(i);
    watched.push_back(inject_attack(packets, spec));
  }

  telemetry::TraceConfig trace_config;
  trace_config.tracks = 1;  // the harness replays on the calling thread
  // Headroom for per-packet events across the whole replay.
  trace_config.ring_capacity = std::size_t{1} << 22;
  telemetry::TraceRecorder recorder{trace_config};
  telemetry::TraceCollector collector{recorder};
  if (!spool_path.empty() && !collector.open_spool(spool_path)) {
    std::fprintf(stderr, "warning: cannot open spool %s for writing\n",
                 spool_path.c_str());
  }

  analysis::LatencyConfig config;
  config.packet_threshold = 500;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 16;
  config.engine.trace = &recorder;
  (void)analysis::measure_detection_latency(packets, watched, config);

  collector.drain();
  std::printf("demo replay: %zu packets, %llu events recorded, %llu dropped\n",
              packets.packets.size(),
              static_cast<unsigned long long>(recorder.emitted()),
              static_cast<unsigned long long>(recorder.dropped()));
  return collector.events();
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const std::string json_path = args.get("json", "");
  const std::string spool_out = args.get("spool", "");

  std::vector<telemetry::TraceEvent> events;
  if (args.get_bool("demo", false)) {
    events = run_demo(spool_out);
  } else if (!args.positional().empty()) {
    const auto& path = args.positional().front();
    try {
      events = telemetry::read_spool(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("%s: %zu events\n", path.c_str(), events.size());
  } else {
    std::fprintf(stderr,
                 "usage: trace_inspect <spool-file> [--json out.json]\n"
                 "       trace_inspect --demo [--spool out.imtrc] "
                 "[--json out.json]\n");
    return 2;
  }

  const auto report = analysis::attribute_stages(events);
  std::fputs(analysis::format_stage_report(report).c_str(), stdout);

  if (!json_path.empty()) {
    const auto json = telemetry::to_chrome_json(events);
    if (std::FILE* f = std::fopen(json_path.c_str(), "wb")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote Chrome trace JSON to %s (open in "
                  "https://ui.perfetto.dev)\n",
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
