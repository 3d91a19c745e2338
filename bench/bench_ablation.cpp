// Ablation study for the design choices DESIGN.md calls out:
//
//   A. Layer count — single-layer RCC vs the two-layer FlowRegulator at
//      equal total memory: regulation rate and per-flow accuracy.
//   B. Noise band width — how many L2 banks (noise_max) trades memory
//      against regulation and accuracy.
//   C. WSAF probe limit — probing work vs eviction pressure.
//   D. WSAF eviction policy — second-chance vs stalest vs reject-on-full,
//      measured by elephant survival under mice churn.
#include "bench_common.h"

#include <array>
#include <unordered_map>
#include <utility>

#include "analysis/ground_truth.h"
#include "analysis/metrics.h"
#include "core/instameasure.h"
#include "runtime/multicore.h"
#include "sketch/rcc.h"

using namespace instameasure;

namespace {

struct AccuracyResult {
  double regulation = 0;
  double err_10k = 0;
  std::uint64_t wsaf_inserts = 0;
};

AccuracyResult run_engine(const trace::Trace& trace,
                          const analysis::GroundTruth& truth,
                          core::EngineConfig config) {
  core::InstaMeasure engine{config};
  for (const auto& rec : trace.packets) engine.process(rec);
  const auto errors = analysis::banded_errors(
      truth,
      [&](const netio::FlowKey& key) { return engine.query(key).packets; },
      {10'000}, false);
  return {engine.regulator().regulation_rate(),
          errors[0].mean_abs_rel_error, engine.wsaf().stats().inserts};
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args{argc, argv};
  const double scale = args.get_double("scale", 0.05);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  bench::print_header("Ablation — layer count, noise band, probe limit, "
                      "eviction policy",
                      "design-choice sensitivity (not a paper figure)");

  const auto trace = trace::generate(trace::caida_like_config(scale, seed));
  bench::print_trace_summary(trace);
  const analysis::GroundTruth truth{trace};

  // ---- A: layers at equal total memory (128KB) ----
  std::printf("\n--- A: one layer (RCC) vs two layers (FlowRegulator), "
              "128KB total ---\n");
  {
    sketch::RccConfig rcc_config;
    rcc_config.memory_bytes = 128 * 1024;
    sketch::RccSketch rcc{rcc_config};
    // Standalone RCC as front-end: estimate = sum of units + residual.
    std::unordered_map<std::uint64_t, double> rcc_counts;
    for (const auto& rec : trace.packets) {
      const auto hash = rec.key.hash();
      if (const auto noise = rcc.encode(rcc.layout_of(hash))) {
        rcc_counts[hash] += rcc.unit(*noise);
      }
    }
    const auto rcc_errors = analysis::banded_errors(
        truth,
        [&](const netio::FlowKey& key) {
          const auto hash = key.hash();
          const auto it = rcc_counts.find(hash);
          const double base = it == rcc_counts.end() ? 0.0 : it->second;
          return base + rcc.residual_estimate(rcc.layout_of(hash));
        },
        {10'000}, false);

    core::EngineConfig fr_config;
    fr_config.regulator.l1_memory_bytes = 32 * 1024;
    fr_config.wsaf.log2_entries = 20;
    const auto fr = run_engine(trace, truth, fr_config);

    analysis::Table table{{"scheme", "regulation", "err 10K+"}};
    table.add_row({"RCC 1-layer (128KB)",
                   analysis::cell("%.2f%%", 100 * rcc.regulation_rate()),
                   analysis::cell("%.2f%%",
                                  100 * rcc_errors[0].mean_abs_rel_error)});
    table.add_row({"FR 2-layer (4x32KB)",
                   analysis::cell("%.2f%%", 100 * fr.regulation),
                   analysis::cell("%.2f%%", 100 * fr.err_10k)});
    table.print();
    bench::shape_check(fr.regulation < rcc.regulation_rate() / 5,
                       "two layers buy >5x regulation at equal memory");
    bench::shape_check(fr.err_10k < rcc_errors[0].mean_abs_rel_error + 0.02,
                       "accuracy cost of the second layer is small");
  }

  // ---- A2: layer count, one flow through one or two layers ----
  std::printf("\n--- A2: layer count (single flow, 32KB per bank) ---\n");
  {
    constexpr int kPackets = 2'000'000;
    constexpr std::uint64_t kFlow = 0xAB12;
    analysis::Table table{{"layers", "banks", "total mem", "regulation",
                           "retention (pkts/event)"}};

    // One layer: a bare RCC sketch. Each saturation stands for unit(noise)
    // packets, so retention is the units summed over the saturations.
    sketch::RccConfig rcc_config;
    rcc_config.memory_bytes = 32 * 1024;
    sketch::RccSketch rcc{rcc_config};
    const auto layout = rcc.layout_of(kFlow);
    double units = 0;
    for (int i = 0; i < kPackets; ++i) {
      if (const auto noise = rcc.encode(layout)) units += rcc.unit(*noise);
    }
    table.add_row(
        {"1", "1", util::format_bytes(rcc_config.memory_bytes),
         analysis::cell("%.4f%%", 100 * rcc.regulation_rate()),
         analysis::cell("%.0f",
                        units / static_cast<double>(rcc.saturations()))});

    // Two layers: the paper's FlowRegulator.
    core::FlowRegulatorConfig fr_config;
    fr_config.l1_memory_bytes = 32 * 1024;
    core::FlowRegulator fr{fr_config};
    for (int i = 0; i < kPackets; ++i) (void)fr.offer(kFlow, 500);
    table.add_row({"2", analysis::cell("%u", 1 + fr_config.banks()),
                   util::format_bytes(fr_config.total_memory_bytes()),
                   analysis::cell("%.4f%%", 100 * fr.regulation_rate()),
                   analysis::cell("%.0f", fr.mean_packets_per_event())});
    table.print();
    std::printf("the second layer multiplies retention (and divides WSAF "
                "ips) by ~9x for 8-bit vectors — the paper's 'or even the "
                "number of layers' tuning knob\n");
  }

  // ---- B: noise band width ----
  std::printf("\n--- B: noise_max (number of L2 banks) ---\n");
  {
    analysis::Table table{{"noise_max", "banks", "total mem", "regulation",
                           "err 10K+"}};
    for (const unsigned noise_max : {1u, 2u, 3u, 4u}) {
      core::EngineConfig config;
      config.regulator.l1_memory_bytes = 32 * 1024;
      config.regulator.noise_max = noise_max;
      config.wsaf.log2_entries = 20;
      const auto r = run_engine(trace, truth, config);
      table.add_row(
          {analysis::cell("%u", noise_max),
           analysis::cell("%u", config.regulator.banks()),
           util::format_bytes(config.regulator.total_memory_bytes()),
           analysis::cell("%.2f%%", 100 * r.regulation),
           analysis::cell("%.2f%%", 100 * r.err_10k)});
    }
    table.print();
  }

  // ---- C: WSAF probe limit ----
  std::printf("\n--- C: WSAF probe limit (1024-entry table to force "
              "pressure) ---\n");
  {
    analysis::Table table{{"probe limit", "inserts", "evictions",
                           "avg probes/accumulate", "load factor"}};
    for (const unsigned limit : {4u, 8u, 16u, 32u}) {
      core::EngineConfig config;
      config.regulator.l1_memory_bytes = 32 * 1024;
      config.wsaf.log2_entries = 10;  // small on purpose
      config.wsaf.probe_limit = limit;
      core::InstaMeasure engine{config};
      for (const auto& rec : trace.packets) engine.process(rec);
      const auto& stats = engine.wsaf().stats();
      table.add_row(
          {analysis::cell("%u", limit), util::format_count(stats.inserts),
           util::format_count(stats.evictions),
           analysis::cell("%.1f", static_cast<double>(stats.probes) /
                                      std::max<std::uint64_t>(
                                          1, stats.accumulates)),
           analysis::cell("%.1f%%", 100 * engine.wsaf().load_factor())});
    }
    table.print();
  }

  // ---- D: eviction policy ----
  std::printf("\n--- D: eviction policy, elephant survival under churn ---\n");
  {
    analysis::Table table{{"policy", "err 10K+", "evictions", "rejected"}};
    const std::pair<core::EvictionPolicy, const char*> policies[] = {
        {core::EvictionPolicy::kSecondChance, "second-chance"},
        {core::EvictionPolicy::kStalest, "stalest"},
        {core::EvictionPolicy::kNone, "reject (NetFlow-style)"},
    };
    double second_chance_err = 0, reject_err = 0;
    for (const auto& [policy, name] : policies) {
      core::EngineConfig config;
      config.regulator.l1_memory_bytes = 32 * 1024;
      config.wsaf.log2_entries = 9;  // tiny: heavy pressure
      config.wsaf.eviction = policy;
      core::InstaMeasure engine{config};
      for (const auto& rec : trace.packets) engine.process(rec);
      const auto errors = analysis::banded_errors(
          truth,
          [&](const netio::FlowKey& key) { return engine.query(key).packets; },
          {10'000}, false);
      if (policy == core::EvictionPolicy::kSecondChance) {
        second_chance_err = errors[0].mean_abs_rel_error;
      }
      if (policy == core::EvictionPolicy::kNone) {
        reject_err = errors[0].mean_abs_rel_error;
      }
      table.add_row({name,
                     analysis::cell("%.2f%%", 100 * errors[0].mean_abs_rel_error),
                     util::format_count(engine.wsaf().stats().evictions),
                     util::format_count(engine.wsaf().stats().rejected)});
    }
    table.print();
    bench::shape_check(second_chance_err <= reject_err + 0.01,
                       "second-chance at least matches reject-on-full under "
                       "table pressure");
  }

  // ---- E: multi-core dispatch policy load balance ----
  std::printf("\n--- E: dispatch policy, per-worker packet share (4 "
              "workers) ---\n");
  {
    analysis::Table table{
        {"policy", "w0", "w1", "w2", "w3", "max/mean pkts / flows"}};
    const std::pair<runtime::DispatchPolicy, const char*> policies[] = {
        {runtime::DispatchPolicy::kPopcount, "popcount(srcIP) (paper Fig 5)"},
        {runtime::DispatchPolicy::kFlowHash, "flow-hash"}};
    for (const auto& [policy, name] : policies) {
      runtime::MultiCoreConfig config;
      config.workers = 4;
      config.dispatch = policy;
      config.engine.regulator.l1_memory_bytes = 32 * 1024;
      config.engine.wsaf.log2_entries = 16;
      runtime::MultiCoreEngine engine{config};
      std::array<std::uint64_t, 4> pkt_load{};
      std::array<std::uint64_t, 4> flow_load{};
      std::unordered_map<std::uint64_t, unsigned> flow_worker;
      for (const auto& rec : trace.packets) {
        const auto w = engine.worker_of(rec.key);
        ++pkt_load[w];
        flow_worker.try_emplace(rec.key.hash(), w);
      }
      for (const auto& [h, w] : flow_worker) ++flow_load[w];
      const double pkt_mean = static_cast<double>(trace.packets.size()) / 4.0;
      const double flow_mean = static_cast<double>(flow_worker.size()) / 4.0;
      std::vector<std::string> row{name};
      for (const auto l : pkt_load) {
        row.push_back(analysis::cell(
            "%.1f%%", 100.0 * static_cast<double>(l) /
                          static_cast<double>(trace.packets.size())));
      }
      row.push_back(analysis::cell(
          "%.2f / %.2f",
          static_cast<double>(
              *std::max_element(pkt_load.begin(), pkt_load.end())) /
              pkt_mean,
          static_cast<double>(
              *std::max_element(flow_load.begin(), flow_load.end())) /
              flow_mean));
      table.add_row(std::move(row));
    }
    table.print();
    std::printf(
        "flow-level balance: hash is near-uniform, popcount is binomially "
        "skewed. Packet-level balance is dominated by elephant placement "
        "luck under ANY flow-affine dispatch — the real limit of Fig 5's "
        "design.\n");
  }
  return 0;
}
