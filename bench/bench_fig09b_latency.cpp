// Fig 9(b): heavy-hitter detection latency vs attacker rate — ~10 ms at
// 10 kpps falling to ~1 ms at 130+ kpps for saturation-based decoding;
// delegation-based decoding pays tens of ms regardless.
//
// Reproduction: inject constant-rate attack flows (10-200 kpps) into a
// background trace, detect with threshold T, and report the delay of
// saturation-based vs delegation-based decoding relative to the exact
// packet-arrival crossing.
#include "bench_common.h"

#include "analysis/latency.h"

using namespace instameasure;

int main(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  bench::print_header(
      "Fig 9(b) — heavy-hitter detection latency vs attack rate",
      "saturation-based decoding detects within ~10 ms at 10 kpps and ~1 ms "
      "at 130+ kpps; faster attackers are caught sooner; delegation costs "
      "tens of ms");

  analysis::LatencyConfig config;
  // T = 0.05% of a 1 Gbps link in pps terms (paper's threshold): with
  // ~1.5 Mpps capacity that is ~750 pkts; we use 500 like the lab setup.
  config.packet_threshold = 500;
  config.epoch_ms = 10.0;
  config.network_delay_ms = 20.0;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 18;
  telemetry::Registry registry;
  config.engine.registry = &registry;

  analysis::Table table{{"attack rate", "truth cross (ms)",
                         "saturation delay (ms)", "delegation delay (ms)"}};
  std::vector<double> rates{10'000, 30'000, 50'000, 70'000,
                            100'000, 130'000, 160'000, 200'000};
  std::vector<double> sat_delays;
  double delegation_min = 1e18;

  for (const double rate : rates) {
    trace::TraceConfig background;
    background.duration_s = 2.0;
    background.mice = {20'000, 1.0, 20};
    background.seed = seed;
    auto trace = trace::generate(background);
    trace::AttackSpec spec;
    spec.rate_pps = rate;
    spec.start_s = 0.2;
    spec.duration_s = 1.5;
    spec.seed = seed + static_cast<std::uint64_t>(rate);
    const auto key = inject_attack(trace, spec);

    const auto rows = analysis::measure_detection_latency(trace, {key}, config);
    if (rows.empty() || !rows[0].saturation_delay_ms()) {
      table.add_row({util::format_rate(rate), "-", "not detected", "-"});
      continue;
    }
    const double sat = *rows[0].saturation_delay_ms();
    const double del = rows[0].delegation_delay_ms().value_or(-1);
    sat_delays.push_back(sat);
    if (del >= 0) delegation_min = std::min(delegation_min, del);
    table.add_row(
        {util::format_rate(rate),
         analysis::cell("%.2f", static_cast<double>(rows[0].truth_ns) / 1e6),
         analysis::cell("%.3f", sat),
         del >= 0 ? analysis::cell("%.1f", del) : "not detected"});
  }
  table.print();

  bench::shape_check(!sat_delays.empty() && sat_delays.front() < 15.0,
                     "10 kpps attacker detected within ~10-15 ms");
  bench::shape_check(sat_delays.size() >= 6 && sat_delays[5] < 2.0,
                     "130 kpps attacker detected within ~1-2 ms");
  bench::shape_check(sat_delays.back() < sat_delays.front(),
                     "heavier attackers are detected faster");
  bench::shape_check(delegation_min > 10.0,
                     "delegation-based decoding pays >=10 ms (epoch + "
                     "network delay) regardless of rate");

  bench::print_metrics_json(registry);
  return 0;
}
