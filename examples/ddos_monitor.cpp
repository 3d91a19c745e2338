// DDoS monitor: the paper's motivating scenario (§I) — at 100 Gbps a
// 100 ms detection delay lets ~1.2 GB of attack traffic through, so
// detection latency is money.
//
// This example injects volumetric attacks of varying intensity into
// benign background traffic, runs InstaMeasure's online (saturation-based)
// detector next to a conventional delegation-based pipeline, and prints
// how much attack traffic each design lets through before raising the
// alarm.
//
// Usage: ./examples/ddos_monitor [--attacks=4] [--threshold=500]
//                                [--background capture.imtrace]
//                                [--trace-out out.trace.json]
//                                [--trace-spool out.imtrc]
//                                [--query-interval=250 [--pace-mpps=2.0]
//                                 [--workers=4]]
//                                [--interface=veth-im1 [--seconds=10]]
//
// --interface switches to LIVE capture: an AF_PACKET/TPACKET_V3 ring on the
// named port feeds the multicore engine (runtime::run_source) for --seconds
// of wall time while the main thread polls the query plane — top talkers
// straight off the wire. Needs CAP_NET_RAW; point tools/pktgen at the other
// end of a veth pair to exercise it. Exits 1 when the ring cannot open.
//
// --background replays a recorded trace (trace_io format) as the benign
// traffic instead of the synthetic campus mix; an unreadable or truncated
// file exits 1 with a one-line diagnostic.
//
// --query-interval=<ms> switches to live-dashboard mode: the trace replays
// through a MultiCoreEngine (paced by --pace-mpps) while the main thread
// polls the lock-free query plane every <ms> milliseconds — top talkers,
// active flow count, and snapshot staleness, printed while packets are
// still flowing. The paper's "instant" read path, live.
//
// --trace-out attaches the flight recorder to the replay and writes
// Chrome trace-event JSON on exit (open in https://ui.perfetto.dev to see
// each attack's packet -> saturation -> WSAF -> alarm chain); --trace-spool
// additionally keeps the raw binary spool for tools/trace_inspect.
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/latency.h"
#include "analysis/stage_latency.h"
#include "audit/auditor.h"
#include "netio/afpacket.h"
#include "runtime/multicore.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
#include "util/cli.h"
#include "util/format.h"

using namespace instameasure;

namespace {

/// Live-dashboard mode: replay through the multicore runtime while the
/// main thread reads the query plane. Everything printed here comes from
/// published WsafViews — the engines' tables are never touched.
int run_live_dashboard(const trace::Trace& trace, const util::CliArgs& args,
                       double query_interval_ms) {
  runtime::MultiCoreConfig mc;
  mc.workers = static_cast<unsigned>(args.get_int("workers", 4));
  mc.engine.regulator.l1_memory_bytes = 32 * 1024;
  mc.engine.wsaf.log2_entries = 18;
  // Live accuracy audit beside the throughput rows: every shard shadows
  // the same 1/16 slice of flow space (small demo traces need a fat slice
  // to catch flows) and the dashboard prints streaming ARE/recall.
  mc.engine.enable_audit = true;
  mc.engine.audit.sample_shift = 4;
  // Dashboard cadence: publish every 16 K packets per worker so the view
  // refreshes many times per polling interval even at modest pace.
  mc.query_plane.publish_every_packets = 1 << 14;
  const double pace_mpps = args.get_double("pace-mpps", 2.0);
  if (!std::isfinite(pace_mpps) || pace_mpps < 0) {
    std::fprintf(stderr,
                 "ddos_monitor: --pace-mpps must be a finite number >= 0 "
                 "(got %g)\n",
                 pace_mpps);
    return 1;
  }

  runtime::MultiCoreEngine engine{mc};
  const auto* queries = engine.queries();

  std::printf("live dashboard: %u workers, paced at %.1f Mpps, polling "
              "every %.0f ms\n\n",
              mc.workers, pace_mpps, query_interval_ms);

  netio::ReplaySource::Config paced;
  paced.pace_pps = pace_mpps * 1e6;
  netio::ReplaySource source{
      std::span<const netio::PacketRecord>{trace.packets}, paced};

  std::atomic<bool> done{false};
  runtime::RunStats stats;
  std::thread runner([&] {
    stats = engine.run_source(source);
    done.store(true, std::memory_order_release);
  });

  const auto t0 = std::chrono::steady_clock::now();
  const auto interval = std::chrono::duration<double, std::milli>(
      query_interval_ms);
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto age = queries->snapshot_age_ns();
    const auto top = queries->top_k(3, core::TopKMetric::kPackets);
    std::printf("[%6.2fs] flows %7zu | view age %s | top:", elapsed,
                queries->active_flow_count(),
                age == UINT64_MAX
                    ? "    --"
                    : (std::to_string(age / 1'000'000) + " ms").c_str());
    for (const auto& item : top) {
      std::printf("  %u.%u.%u.%u (%.0f pkts)", item.key.src_ip >> 24,
                  (item.key.src_ip >> 16) & 0xff, (item.key.src_ip >> 8) & 0xff,
                  item.key.src_ip & 0xff, item.packets);
    }
    const auto a = queries->audit();
    if (a.comparisons > 0) {
      std::printf(" | audit: ARE %.1f%% recall %.0f%%",
                  a.are * 100, a.recall * 100);
    }
    std::printf("\n");
  }
  runner.join();

  std::printf("\nreplay done: %.2f Mpps, %llu views published "
              "(%llu skipped), final active flows %zu\n",
              stats.mpps,
              static_cast<unsigned long long>(stats.views_published),
              static_cast<unsigned long long>(stats.view_publishes_skipped),
              queries->active_flow_count());
  const auto final_top = queries->top_k(5, core::TopKMetric::kPackets);
  std::printf("final top talkers (from the last published views):\n");
  for (const auto& item : final_top) {
    std::printf("  %u.%u.%u.%u -> %.0f packets, %s\n", item.key.src_ip >> 24,
                (item.key.src_ip >> 16) & 0xff, (item.key.src_ip >> 8) & 0xff,
                item.key.src_ip & 0xff, item.packets,
                util::format_bytes(static_cast<std::uint64_t>(item.bytes))
                    .c_str());
  }
  // The end-of-run audit summary is exact: each worker runs its
  // exactness sweep as it drains, so these equal the offline
  // analysis::metrics computation over the audited slice.
  const auto a = queries->audit();
  if (a.comparisons > 0) {
    std::printf("\naccuracy audit (exact shadow of 1/%llu of flow "
                "space, %llu flows):\n",
                1ull << mc.engine.audit.sample_shift,
                static_cast<unsigned long long>(a.comparisons));
    std::printf("  ARE %.2f%% (bias %+.2f%%) | HH recall %.0f%% "
                "precision %.0f%% (%llu true crossings)\n",
                a.are * 100, a.mean_rel_bias * 100, a.recall * 100,
                a.precision * 100,
                static_cast<unsigned long long>(a.true_hh));
    std::printf("  undercounts %llu (sketch residual %llu, wsaf "
                "eviction %llu, shed compensation %llu), "
                "overcounts %llu\n",
                static_cast<unsigned long long>(a.undercount),
                static_cast<unsigned long long>(a.causes[0]),
                static_cast<unsigned long long>(a.causes[1]),
                static_cast<unsigned long long>(a.causes[2]),
                static_cast<unsigned long long>(a.overcount));
  }
  return 0;
}

/// Live-capture mode: the same dashboard, but the packets come off a real
/// interface through the AF_PACKET ring instead of a synthetic trace.
int run_live_capture(const util::CliArgs& args, const std::string& iface) {
  netio::AfPacketConfig cap;
  cap.interface = iface;
  // Modest ring for an example: 16 x 1 MB blocks, plenty for a veth demo.
  cap.block_size = 1u << 20;
  cap.block_count = 16;
  netio::AfPacketSource source{cap};
  if (!source.available()) {
    std::fprintf(stderr, "ddos_monitor: cannot capture on %s: %s\n",
                 iface.c_str(), source.error().c_str());
    return 1;
  }

  runtime::MultiCoreConfig mc;
  mc.workers = static_cast<unsigned>(args.get_int("workers", 4));
  mc.engine.regulator.l1_memory_bytes = 32 * 1024;
  mc.engine.wsaf.log2_entries = 18;
  mc.query_plane.publish_every_packets = 1 << 12;
  runtime::MultiCoreEngine engine{mc};
  const auto* queries = engine.queries();

  runtime::SourceRunConfig run_config;
  run_config.max_seconds = args.get_double("seconds", 10.0);
  run_config.stop_on_exhausted = false;  // quiet port != end of capture
  std::printf("live capture on %s: %u workers, %.0f s window\n\n",
              iface.c_str(), mc.workers, run_config.max_seconds);

  std::atomic<bool> done{false};
  runtime::RunStats stats;
  std::string failure;  // run_source's error (a bad --seconds), read after join
  std::thread runner([&] {
    try {
      stats = engine.run_source(source, run_config);
    } catch (const std::exception& e) {
      failure = e.what();
    }
    done.store(true, std::memory_order_release);
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto top = queries->top_k(3, core::TopKMetric::kPackets);
    std::printf("[%6.2fs] flows %7zu | top:", elapsed,
                queries->active_flow_count());
    for (const auto& item : top) {
      std::printf("  %u.%u.%u.%u (%.0f pkts)", item.key.src_ip >> 24,
                  (item.key.src_ip >> 16) & 0xff, (item.key.src_ip >> 8) & 0xff,
                  item.key.src_ip & 0xff, item.packets);
    }
    std::printf("\n");
  }
  runner.join();
  if (!failure.empty()) {
    std::fprintf(stderr, "ddos_monitor: %s\n", failure.c_str());
    return 1;
  }

  std::printf("\ncapture done: %llu packets (%.2f Mpps), kernel dropped "
              "%llu, undecodable %llu, fragments %llu, truncated %llu\n",
              static_cast<unsigned long long>(stats.packets), stats.mpps,
              static_cast<unsigned long long>(stats.io_kernel_dropped),
              static_cast<unsigned long long>(stats.io_skipped),
              static_cast<unsigned long long>(stats.io_fragments),
              static_cast<unsigned long long>(stats.io_truncated));
  const auto final_top = queries->top_k(5, core::TopKMetric::kPackets);
  std::printf("top talkers on the wire:\n");
  for (const auto& item : final_top) {
    std::printf("  %u.%u.%u.%u -> %.0f packets, %s\n", item.key.src_ip >> 24,
                (item.key.src_ip >> 16) & 0xff, (item.key.src_ip >> 8) & 0xff,
                item.key.src_ip & 0xff, item.packets,
                util::format_bytes(static_cast<std::uint64_t>(item.bytes))
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const auto n_attacks = static_cast<int>(args.get_int("attacks", 4));
  const double threshold = args.get_double("threshold", 500);

  std::printf("=== InstaMeasure DDoS monitor ===\n");

  if (const std::string iface = args.get("interface", ""); !iface.empty()) {
    return run_live_capture(args, iface);
  }

  // Benign background: a recorded trace if --background was given,
  // otherwise campus-like mice + a few legitimate elephants.
  trace::Trace trace;
  if (const std::string background_path = args.get("background", "");
      !background_path.empty()) {
    try {
      trace = trace::load_trace(background_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ddos_monitor: %s: %s\n", background_path.c_str(),
                   e.what());
      return 1;
    }
  } else {
    trace::TraceConfig background;
    background.duration_s = 3.0;
    background.tiers = {{5, 5'000, 20'000}};
    background.mice = {30'000, 1.05, 30};
    background.seed = 2024;
    trace = trace::generate(background);
  }

  // Attackers: increasing intensity, staggered onsets, 512B floods.
  struct Attack {
    netio::FlowKey key;
    double rate_pps;
    double start_s;
  };
  std::vector<Attack> attacks;
  for (int i = 0; i < n_attacks; ++i) {
    trace::AttackSpec spec;
    spec.rate_pps = 20'000.0 * (i + 1);
    spec.start_s = 0.3 + 0.5 * i;
    spec.duration_s = 1.2;
    spec.packet_len = 512;
    spec.seed = 7'000 + static_cast<std::uint64_t>(i);
    const auto key = inject_attack(trace, spec);
    attacks.push_back({key, spec.rate_pps, spec.start_s});
  }
  std::printf("background + %d attack flows, %zu packets total\n\n",
              n_attacks, trace.packets.size());

  if (const double query_interval_ms =
          args.get_double("query-interval", 0);
      query_interval_ms > 0) {
    return run_live_dashboard(trace, args, query_interval_ms);
  }

  // Detect with both strategies.
  analysis::LatencyConfig config;
  config.packet_threshold = threshold;
  config.epoch_ms = 10.0;          // delegation flush period
  config.network_delay_ms = 20.0;  // collector round trip
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 18;
  // The harness copies this config into its engine, so the registry sees
  // every metric the online detector produced during the replay.
  telemetry::Registry registry;
  config.engine.registry = &registry;

  // Optional flight recorder: one track (the replay is single-threaded),
  // sized to hold every per-packet event so nothing drops.
  const std::string trace_out = args.get("trace-out", "");
  const std::string trace_spool = args.get("trace-spool", "");
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  std::unique_ptr<telemetry::TraceCollector> collector;
  if (!trace_out.empty() || !trace_spool.empty()) {
    telemetry::TraceConfig trace_config;
    trace_config.tracks = 1;
    trace_config.ring_capacity = std::bit_ceil(trace.packets.size() * 2);
    recorder = std::make_unique<telemetry::TraceRecorder>(trace_config);
    collector = std::make_unique<telemetry::TraceCollector>(*recorder);
    if (!trace_spool.empty() && !collector->open_spool(trace_spool)) {
      std::fprintf(stderr, "warning: cannot open %s\n", trace_spool.c_str());
    }
    config.engine.trace = recorder.get();
  }

  std::vector<netio::FlowKey> watched;
  for (const auto& a : attacks) watched.push_back(a.key);
  const auto rows = analysis::measure_detection_latency(trace, watched, config);

  std::printf("%-10s %-12s %-16s %-16s %-24s\n", "attack", "rate",
              "InstaMeasure", "delegation", "leakage saved");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const double rate = attacks[i].rate_pps;
    const double sat_ms = row.saturation_delay_ms().value_or(-1);
    const double del_ms = row.delegation_delay_ms().value_or(-1);
    // Bytes of attack traffic admitted between the two alarm times.
    const double saved_bytes =
        (del_ms - sat_ms) / 1e3 * rate * 512.0;
    std::printf("#%-9zu %-12s %13.2f ms %13.1f ms   %s less attack traffic\n",
                i + 1, util::format_rate(rate).c_str(), sat_ms, del_ms,
                util::format_bytes(static_cast<std::uint64_t>(
                                       std::max(0.0, saved_bytes)))
                    .c_str());
  }

  // The engine records first-seen-to-detection latency per detection; the
  // registry histogram gives the distribution across every alarm raised.
  const auto snapshot = registry.snapshot();
  if (const auto* sample =
          snapshot.find("im_engine_detection_latency_ns");
      sample != nullptr && sample->histogram && sample->histogram->count > 0) {
    const auto& h = *sample->histogram;
    std::printf(
        "\ndetection latency (flow first-seen -> alarm, %llu detections):\n"
        "    p50 %.2f ms   p90 %.2f ms   p99 %.2f ms   max %.2f ms\n",
        static_cast<unsigned long long>(h.count), h.quantile(0.50) / 1e6,
        h.quantile(0.90) / 1e6, h.quantile(0.99) / 1e6,
        static_cast<double>(h.max) / 1e6);
  }

  if (collector) {
    collector->drain();
    std::printf("\nflight recorder: %llu events (%llu dropped)\n",
                static_cast<unsigned long long>(collector->events().size()),
                static_cast<unsigned long long>(collector->dropped()));
    const auto report = analysis::attribute_stages(
        std::span{collector->events()});
    std::fputs(analysis::format_stage_report(report).c_str(), stdout);
    if (!trace_out.empty()) {
      const auto json = telemetry::to_chrome_json(
          std::span{collector->events()});
      if (std::FILE* f = std::fopen(trace_out.c_str(), "wb")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote Chrome trace JSON to %s (open in "
                    "https://ui.perfetto.dev)\n",
                    trace_out.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      }
    }
    if (!trace_spool.empty()) {
      std::printf("binary spool at %s (inspect with tools/trace_inspect)\n",
                  trace_spool.c_str());
    }
  }

  std::printf("\nThe online detector needs no collector round trip: the "
              "moment a FlowRegulator saturation pushes the WSAF counter "
              "over T, the alarm fires — the paper's 'Insta'.\n");
  return 0;
}
