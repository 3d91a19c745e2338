// Fig 9(a): processing speed vs worker cores — the paper measures 18.9 /
// 25.5 / 36.2 / 46.3 Mpps for 1-4 Atom cores on the preloaded CAIDA trace.
//
// Reproduction: run the multi-core engine over a preloaded in-memory trace
// with 1..4 workers and report wall-clock Mpps. NOTE: absolute numbers and
// the scaling slope depend on the build host's physical core count; on a
// single-core host the workers timeslice and aggregate throughput cannot
// rise (the harness reports the host's parallelism so the result can be
// interpreted).
#include "bench_common.h"

#include <algorithm>
#include <string>
#include <thread>

#include "runtime/multicore.h"

using namespace instameasure;

int main(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const double scale = args.get_double("scale", 0.05);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto max_workers =
      static_cast<unsigned>(args.get_int("max-workers", 4));

  bench::print_header(
      "Fig 9(a) — FlowRegulator processing speed vs cores",
      "18.9 / 25.5 / 36.2 / 46.3 Mpps for 1-4 Atom cores; throughput "
      "scales with core count");

  const auto trace = trace::generate(trace::caida_like_config(scale, seed));
  bench::print_trace_summary(trace);
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("host parallelism: %u hardware thread(s)%s\n", host_cores,
              host_cores < 2 ? "  [scaling cannot materialize here]" : "");

  // Workers drain their queues through process_batch(), the path the
  // repo benchmark's core_cycles_per_pkt times.
  analysis::Table table{{"workers", "wall (s)", "Mpps", "producer stalls",
                         "max queue depth"}};
  std::vector<double> mpps;  // per worker count
  telemetry::Registry registry;
  for (unsigned w = 1; w <= max_workers; ++w) {
    runtime::MultiCoreConfig config;
    config.workers = w;
    config.engine.regulator.l1_memory_bytes = 32 * 1024;
    config.engine.wsaf.log2_entries = 20;
    config.registry = &registry;
    runtime::MultiCoreEngine engine{config};
    const auto stats = engine.run(trace);
    mpps.push_back(stats.mpps);
    std::size_t max_depth = 0;
    for (const auto d : stats.max_queue_depth) {
      max_depth = std::max(max_depth, d);
    }
    table.add_row({analysis::cell("%u", w),
                   analysis::cell("%.3f", stats.wall_seconds),
                   analysis::cell("%.2f", stats.mpps),
                   util::format_count(stats.producer_stalls),
                   util::format_count(max_depth)});
  }
  table.print();

  // Single-worker speed also bounds the single-core claim: the paper's
  // 18.9 Mpps on a 2.4GHz Atom corresponds to ~127 cycles per packet.
  bench::shape_check(mpps[0] > 1.0,
                     "single-worker engine sustains multi-Mpps on a "
                     "preloaded trace (paper: 18.9 Mpps on Atom)");
  // The manager thread spins beside the workers, so w workers need w + 1
  // hardware threads: judge the slope at the largest count that fits.
  const unsigned judged =
      host_cores == 0 ? 0 : std::min(max_workers, host_cores - 1);
  if (judged >= 2) {
    bench::shape_check(
        mpps[judged - 1] > mpps.front() * 1.3,
        "throughput grows with workers (paper Fig 9a slope), judged at " +
            std::to_string(judged) + " workers + 1 manager on " +
            std::to_string(host_cores) + " hardware thread(s)");
  } else if (host_cores == 0) {
    std::printf(
        "SHAPE-CHECK SKIP: host parallelism unknown; the Fig 9a scaling "
        "slope requires physical cores (see DESIGN.md substitutions)\n");
  } else {
    std::printf(
        "SHAPE-CHECK SKIP: %u worker(s) fit beside the manager "
        "(--max-workers=%u, %u hardware thread(s)); the Fig 9a scaling "
        "slope needs 2 (see DESIGN.md substitutions)\n",
        judged, max_workers, host_cores);
  }
  bench::print_metrics_json(registry);
  return 0;
}
