// Differential suite for the live accuracy-audit plane: the live gauges
// are only worth scraping if they agree with the offline evaluation the
// repo already trusts. For every ingest mode (scalar, batch, multicore ×
// two trace seeds) the auditor's end-of-run summary — ARE, signed bias,
// recall, precision, attribution — must match a from-scratch
// analysis-style computation over the same sampled slice, exactly (the
// ISSUE's 1% acceptance band is margin, not slack). The suite also pins
// the two safety contracts: an attached auditor never perturbs engine
// state (runtime on/off bit-identity), and QueryEngine::audit() is safe
// to call from a reader thread while ingest runs (the TSan hammer).
#include "audit/auditor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ground_truth.h"
#include "core/instameasure.h"
#include "core/query_engine.h"
#include "runtime/multicore.h"
#include "trace/generator.h"

namespace instameasure {
namespace {

core::EngineConfig audited_config(unsigned sample_shift) {
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 32 * 1024;
  config.wsaf.log2_entries = 14;
  config.heavy_hitter.packet_threshold = 5'000;
  config.enable_audit = true;
  config.audit.sample_shift = sample_shift;
  return config;
}

trace::Trace zipf_trace(std::uint64_t seed) {
  trace::TraceConfig config;
  config.name = "audit-" + std::to_string(seed);
  config.duration_s = 1.0;
  config.tiers = {{3, 15'000, 30'000}, {25, 1'000, 4'000}};
  config.mice = {8'000, 1.1, 40};
  config.seed = seed;
  return trace::generate(config);
}

/// The offline reference: analysis::metrics-style aggregates recomputed
/// from ground truth + per-flow queries, restricted to the audited slice.
struct OfflineAudit {
  std::uint64_t flows = 0;
  double sum_abs_rel_err = 0;
  double sum_rel_err = 0;
  std::uint64_t undercount = 0;
  std::uint64_t overcount = 0;
  std::uint64_t true_hh = 0;
  std::uint64_t detected_true_hh = 0;
  [[nodiscard]] double are() const {
    return flows ? sum_abs_rel_err / static_cast<double>(flows) : 0;
  }
  [[nodiscard]] double recall() const {
    return true_hh ? static_cast<double>(detected_true_hh) /
                         static_cast<double>(true_hh)
                   : 1.0;
  }
};

/// `query` answers per-flow estimates; `detected` says whether the engine
/// raised a packet-metric alarm for the key.
template <typename QueryFn, typename DetectedFn>
OfflineAudit offline_reference(const analysis::GroundTruth& truth,
                               const audit::Auditor& sampler,
                               double packet_threshold, double tolerance,
                               const QueryFn& query,
                               const DetectedFn& detected) {
  OfflineAudit ref;
  for (const auto& [key, t] : truth.flows()) {
    if (!sampler.sampled(key) || t.packets == 0) continue;
    ++ref.flows;
    const auto est = query(key);
    const double rel = (est.packets - static_cast<double>(t.packets)) /
                       static_cast<double>(t.packets);
    ref.sum_abs_rel_err += std::abs(rel);
    ref.sum_rel_err += rel;
    if (rel < -tolerance) ++ref.undercount;
    if (rel > tolerance) ++ref.overcount;
    if (packet_threshold > 0 &&
        static_cast<double>(t.packets) >= packet_threshold) {
      ++ref.true_hh;
      if (detected(key)) ++ref.detected_true_hh;
    }
  }
  return ref;
}

void expect_summary_matches(const audit::AuditSummary& live,
                            const OfflineAudit& ref,
                            const std::string& tag) {
  SCOPED_TRACE(tag);
  EXPECT_EQ(live.comparisons, ref.flows);
  EXPECT_NEAR(live.are, ref.are(), 1e-9);
  EXPECT_NEAR(live.sum_abs_rel_err, ref.sum_abs_rel_err, 1e-6);
  EXPECT_NEAR(live.sum_rel_err, ref.sum_rel_err, 1e-6);
  EXPECT_EQ(live.undercount, ref.undercount);
  EXPECT_EQ(live.overcount, ref.overcount);
  EXPECT_EQ(live.true_hh, ref.true_hh);
  EXPECT_EQ(live.detected_true_hh, ref.detected_true_hh);
  EXPECT_NEAR(live.recall, ref.recall(), 1e-9);
  // Every undercount carries exactly one attributed cause.
  EXPECT_EQ(live.causes[0] + live.causes[1] + live.causes[2],
            live.undercount);
  if (live.detections > 0) {
    EXPECT_NEAR(live.precision,
                static_cast<double>(live.detected_true_hh) /
                    static_cast<double>(live.detections),
                1e-12);
  } else {
    EXPECT_DOUBLE_EQ(live.precision, 1.0);
  }
}

TEST(AuditSampling, SliceIsDeterministicAndSeedIndependentOfEngine) {
  audit::AuditConfig a;
  a.sample_shift = 8;
  audit::Auditor first{a}, second{a};
  const auto trace = zipf_trace(7);
  const analysis::GroundTruth truth{trace};
  std::uint64_t sampled = 0;
  for (const auto& [key, t] : truth.flows()) {
    EXPECT_EQ(first.sampled(key), second.sampled(key));
    if (first.sampled(key)) ++sampled;
  }
  // 1/256 of the ring: the trace has ~8k flows, so the expected count is
  // ~32; just require the slice to be a small non-empty minority.
  EXPECT_GT(sampled, 0u);
  EXPECT_LT(sampled, truth.flows().size() / 64);

  audit::AuditConfig everything;
  everything.sample_shift = 0;
  audit::AuditConfig nothing;
  nothing.sample_shift = 64;
  audit::Auditor all{everything}, none{nothing};
  for (const auto& [key, t] : truth.flows()) {
    EXPECT_TRUE(all.sampled(key));
    EXPECT_FALSE(none.sampled(key));
  }
}

TEST(AuditDifferential, ScalarAndBatchMatchOfflineMetrics) {
  for (const std::uint64_t seed : {11u, 22u}) {
    const auto trace = zipf_trace(seed);
    const analysis::GroundTruth truth{trace};
    // shift 0 audits every flow (maximum teeth); shift 2 exercises the
    // sampling reject on the same trace.
    for (const unsigned shift : {0u, 2u}) {
      for (const std::size_t batch : {std::size_t{0}, std::size_t{64}}) {
        core::InstaMeasure engine{audited_config(shift)};
        if (batch == 0) {
          for (const auto& rec : trace.packets) engine.process(rec);
        } else {
          const std::span<const netio::PacketRecord> all{trace.packets};
          for (std::size_t off = 0; off < all.size(); off += batch) {
            engine.process_batch(
                all.subspan(off, std::min(batch, all.size() - off)));
          }
        }
        engine.audit_final_sweep();
        ASSERT_NE(engine.auditor(), nullptr);
        const auto live = engine.auditor()->summary();
        ASSERT_GT(live.comparisons, 0u);
        if (shift == 0) {
          ASSERT_GT(live.true_hh, 0u)
              << "no audited heavy hitters: differential has no teeth";
        }

        const auto& detections = engine.detections();
        const auto ref = offline_reference(
            truth, *engine.auditor(),
            engine.auditor()->config().packet_threshold,
            audit::kErrorTolerance,
            [&](const netio::FlowKey& key) { return engine.query(key); },
            [&](const netio::FlowKey& key) {
              for (const auto& d : detections) {
                if (d.key == key &&
                    d.metric == core::TopKMetric::kPackets) {
                  return true;
                }
              }
              return false;
            });
        expect_summary_matches(live, ref,
                               "seed=" + std::to_string(seed) +
                                   " shift=" + std::to_string(shift) +
                                   " batch=" + std::to_string(batch));
      }
    }
  }
}

TEST(AuditDifferential, MultiCoreMergedSummaryMatchesOffline) {
  for (const std::uint64_t seed : {11u, 22u}) {
    const auto trace = zipf_trace(seed);
    const analysis::GroundTruth truth{trace};
    runtime::MultiCoreConfig config;
    config.workers = 3;
    config.engine = audited_config(0);
    runtime::MultiCoreEngine mc{config};
    const auto stats = mc.run(trace);
    ASSERT_EQ(stats.processed, stats.packets) << "kBlock must not drop";

    ASSERT_NE(mc.queries(), nullptr);
    const auto live = mc.queries()->audit();
    ASSERT_GT(live.comparisons, 0u);
    ASSERT_GT(live.true_hh, 0u);

    // Shard-routed queries + per-shard detection logs stand in for the
    // single engine's.
    const auto ref = offline_reference(
        truth, *mc.engine(0).auditor(),
        mc.engine(0).auditor()->config().packet_threshold,
        audit::kErrorTolerance,
        [&](const netio::FlowKey& key) { return mc.query(key); },
        [&](const netio::FlowKey& key) {
          const auto& detections =
              mc.engine(mc.worker_of(key)).detections();
          for (const auto& d : detections) {
            if (d.key == key &&
                d.metric == core::TopKMetric::kPackets) {
              return true;
            }
          }
          return false;
        });
    expect_summary_matches(live, ref, "multicore seed=" +
                                          std::to_string(seed));

    // The audited slice must be the same across shards (the sample seed is
    // not decorrelated): every shard agrees on membership.
    for (const auto& [key, t] : truth.flows()) {
      const bool s0 = mc.engine(0).auditor()->sampled(key);
      for (unsigned w = 1; w < mc.workers(); ++w) {
        EXPECT_EQ(mc.engine(w).auditor()->sampled(key), s0);
      }
      break;  // spot check; full agreement is a pure function of config
    }
  }
}

[[nodiscard]] std::string wsaf_bytes(const core::InstaMeasure& engine,
                                     const std::string& tag) {
  const std::string path = testing::TempDir() + "audit-wsaf-" + tag + ".bin";
  engine.wsaf().save(path);
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AuditDifferential, AuditIsAPureObserver) {
  // enable_audit on vs off over the same trace: detections, WSAF bytes,
  // and per-flow queries must be bit-identical — the audit plane reads
  // engine state, never writes it.
  const auto trace = zipf_trace(33);
  auto off_config = audited_config(0);
  off_config.enable_audit = false;
  core::InstaMeasure with_audit{audited_config(0)};
  core::InstaMeasure without{off_config};
  for (const auto& rec : trace.packets) {
    with_audit.process(rec);
    without.process(rec);
  }
  EXPECT_EQ(wsaf_bytes(with_audit, "on"), wsaf_bytes(without, "off"));
  const auto& da = with_audit.detections();
  const auto& db = without.detections();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].key, db[i].key);
    EXPECT_EQ(da[i].detected_at_ns, db[i].detected_at_ns);
    EXPECT_DOUBLE_EQ(da[i].value_at_detection, db[i].value_at_detection);
  }
  const analysis::GroundTruth truth{trace};
  for (const auto& [key, t] : truth.flows()) {
    const auto ea = with_audit.query(key);
    const auto eb = without.query(key);
    EXPECT_DOUBLE_EQ(ea.packets, eb.packets);
    EXPECT_DOUBLE_EQ(ea.bytes, eb.bytes);
    EXPECT_EQ(ea.in_wsaf, eb.in_wsaf);
  }
}

TEST(AuditConcurrency, SummaryReadableWhileIngestRuns) {
  // The TSan target (scripts/run_sanitized_tests.sh runs this suite under
  // -fsanitize=thread): a reader thread hammers QueryEngine::audit() and
  // the per-shard summaries while the multicore engine ingests. The
  // relaxed single-writer cells must yield a torn-free, race-free
  // snapshot; the assertions only sanity-check ranges because mid-run
  // values are moving targets.
  const auto trace = zipf_trace(44);
  runtime::MultiCoreConfig config;
  config.workers = 3;
  config.engine = audited_config(0);
  runtime::MultiCoreEngine mc{config};
  ASSERT_NE(mc.queries(), nullptr);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader{[&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto s = mc.queries()->audit();
      EXPECT_GE(s.are, 0.0);
      EXPECT_GE(s.recall, 0.0);
      EXPECT_LE(s.recall, 1.0);
      EXPECT_GE(s.comparisons, 0u);
      ++reads;
    }
  }};
  for (int pass = 0; pass < 3; ++pass) mc.run(trace);
  done = true;
  reader.join();
  EXPECT_GT(reads.load(), 0u);

  const auto final_summary = mc.queries()->audit();
  EXPECT_GT(final_summary.comparisons, 0u);
  EXPECT_GE(final_summary.recall, 0.0);
  EXPECT_LE(final_summary.recall, 1.0);
}

TEST(AuditSummaryMerge, RatiosRecomputedFromRawSums) {
  audit::AuditSummary a;
  a.comparisons = 2;
  a.sum_abs_rel_err = 0.2;  // shard ARE 0.1
  a.sum_rel_err = -0.2;
  a.true_hh = 1;
  a.detected_true_hh = 1;
  a.detections = 1;
  audit::AuditSummary b;
  b.comparisons = 8;
  b.sum_abs_rel_err = 0.1;  // shard ARE 0.0125
  b.sum_rel_err = 0.1;
  b.true_hh = 3;
  b.detected_true_hh = 2;
  b.detections = 4;
  const auto m = audit::merge(a, b);
  EXPECT_EQ(m.comparisons, 10u);
  // Exact pooled ARE (0.3/10), NOT the average of the shard AREs (0.056).
  EXPECT_NEAR(m.are, 0.03, 1e-12);
  EXPECT_NEAR(m.mean_rel_bias, -0.01, 1e-12);
  EXPECT_NEAR(m.recall, 0.75, 1e-12);
  EXPECT_NEAR(m.precision, 0.6, 1e-12);

  const audit::AuditSummary empty;
  const auto with_empty = audit::merge(empty, a);
  EXPECT_EQ(with_empty.comparisons, a.comparisons);
  EXPECT_NEAR(with_empty.are, 0.1, 1e-12);
}

}  // namespace
}  // namespace instameasure
