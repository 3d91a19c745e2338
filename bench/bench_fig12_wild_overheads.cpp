// Fig 12: monitoring in the wild — 113 hours at the campus gateway with a
// single Atom core, 128KB sketch, 33MB WSAF. The traffic curve is diurnal;
// the worker's load follows it but never exceeds ~40%, and the ingress
// queue never grows noticeably.
//
// Reproduction: a compressed campus-like trace (diurnal modulation) is
// replayed through the single-worker runtime *paced at trace time* so that
// worker utilization is meaningful, reporting the per-interval traffic,
// a modeled CPU load, and queue depth.
#include "bench_common.h"

#include "core/instameasure.h"
#include "runtime/multicore.h"

using namespace instameasure;

int main(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const double scale = args.get_double("scale", 0.1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  bench::print_header(
      "Fig 12 — monitoring in the wild: traffic curve, CPU load, queue",
      "traffic is diurnal; single-core load tracks it but stays <40%; the "
      "ingress queue does not grow");

  const auto trace =
      trace::generate(trace::campus_config(scale, 240.0, seed));
  bench::print_trace_summary(trace);

  // Measure the engine's raw per-packet cost once (throughput mode)...
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 20;
  core::InstaMeasure engine{config};
  bench::WallTimer timer;
  for (const auto& rec : trace.packets) engine.process(rec);
  const double ns_per_packet =
      timer.seconds() * 1e9 / static_cast<double>(trace.packets.size());
  std::printf("engine cost: %.1f ns/packet (%.2f Mpps single worker)\n",
              ns_per_packet, 1e3 / ns_per_packet);

  // ...then model per-interval CPU load as (pps x cost), the quantity the
  // paper's Fig 12(c) plots. A 1 Gbps campus uplink peaks ~150 kpps.
  const auto timeline = trace::pps_timeline(trace, trace.duration_s() / 12.0);
  analysis::Table table{{"interval", "pps", "modeled CPU load", "wsaf occupancy"}};
  double max_load = 0, min_load = 1;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const double load = timeline[i] * ns_per_packet / 1e9;
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
    table.add_row({analysis::cell("%zu", i), util::format_rate(timeline[i]),
                   analysis::cell("%.2f%%", 100 * load), ""});
  }
  table.print();

  std::printf("\nWSAF: occupancy %s of %s entries (%.1f%%), %s logical\n",
              util::format_count(engine.wsaf().occupancy()).c_str(),
              util::format_count(engine.wsaf().config().entries()).c_str(),
              100 * engine.wsaf().load_factor(),
              util::format_bytes(engine.wsaf().logical_memory_bytes()).c_str());
  std::printf("regulation rate over full run: %.2f%%\n",
              100 * engine.regulator().regulation_rate());

  // Queue behaviour under real-time arrival: replay a slice paced at the
  // campus peak rate (~150 kpps on the 1 Gbps uplink) and report the
  // queue's high-water mark — the Fig 12 "queue did not grow" claim.
  runtime::MultiCoreConfig mc;
  mc.workers = 1;
  mc.engine = config;
  runtime::MultiCoreEngine mc_engine{mc};
  const double peak_pps = 150'000;
  netio::ReplaySource::Config paced;
  paced.pace_pps = peak_pps;
  netio::ReplaySource slice{
      std::span<const netio::PacketRecord>{trace.packets}.first(
          std::min<std::size_t>(300'000, trace.packets.size())),
      paced};
  const auto stats = mc_engine.run_source(slice);
  std::printf("paced replay at %s: queue high-water mark %s of %s slots, "
              "%s producer stalls\n",
              util::format_rate(peak_pps).c_str(),
              util::format_count(stats.max_queue_depth[0]).c_str(),
              util::format_count(mc.queue_capacity).c_str(),
              util::format_count(stats.producer_stalls).c_str());

  bench::shape_check(max_load > 2.0 * std::max(min_load, 1e-9),
                     "CPU load follows the diurnal traffic curve");
  bench::shape_check(max_load < 0.40,
                     "single-core load stays under 40% at campus rates");
  bench::shape_check(stats.max_queue_depth[0] < mc.queue_capacity / 4 &&
                         stats.producer_stalls == 0,
                     "ingress queue does not grow under real-time arrival");
  return 0;
}
