// Live accuracy-audit plane (tentpole of the observability-accuracy PR).
//
// The engine's telemetry/trace/perf stack observes only *speed*; whether the
// estimates are any good was, until this module, an offline question
// (src/analysis/metrics.*, after the run stops). The Auditor closes that gap:
// it keeps an exact shadow account — true packet and byte counts — for a
// deterministic hash-sampled slice of the flow space (flows whose
// sample-seeded key hash falls in the top 1/2^sample_shift of the ring,
// default 1/256) beside live ingest, and continuously compares the engine's
// estimates against it. From those comparisons it publishes streaming
// `im_audit_*` telemetry: ARE and relative-error percentiles, detection
// recall/precision over the sampled slice, time-to-detect from the
// ground-truth threshold crossing, and *error attribution* counters that
// classify each audited undercount as sketch residual (mass still parked in
// the regulator), WSAF eviction (the flow had a record and lost it), or
// shed-ladder compensation (the flow's count passed through the resilience
// layer's 2^L weighting). Each comparison also lands as a kAudit trace event
// so `trace_inspect` renders accuracy next to stage latency.
//
// Sampling is on a FIXED seed, independent of the engine's flow hash:
// MultiCoreEngine decorrelates per-worker engine seeds, so sampling on the
// engine hash would select a different slice per shard. A dedicated
// kSampleSeed keeps the audited slice identical across shards (and across
// scalar/batch/multicore differential runs). Hash-sampling the *ring* (not
// the packets) keeps the slice unbiased under Zipf skew: every flow is
// either fully audited or untouched.
//
// Hot-path contract: with an auditor attached, every packet pays one extra
// key hash + mask test (the sampled() reject, a few ns); only the sampled
// 1/2^sample_shift slice touches the shadow map, and only every
// 2^kCompareShift-th sampled packet (auditor.cpp) triggers an estimate
// read-back + comparison (~1/8192 of packets at the default
// sample_shift). The CI gate scripts/check_audit_overhead.sh holds the
// total under 3% of batched throughput. Aggregates visible to summary() are relaxed atomics
// (single-writer, like telemetry cells), so QueryEngine::audit() may snapshot
// them from any thread while ingest runs.
//
// Off switch: an engine with EngineConfig::enable_audit = false holds no
// Auditor, and every hook is one null-pointer test.
//
// Dependency direction: this library sits BELOW im_core (im_core links
// im_audit), so it speaks netio/telemetry types only — WSAF pressure arrives
// as a plain int level, detections as a by_bytes flag.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "netio/flow_key.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace instameasure::audit {

/// Why an audited estimate undershot the shadow truth. Checked in order:
/// eviction is definitive (the flow HAD a WSAF record and the lookup now
/// misses), shed compensation next (the flow's packets passed through the
/// resilience ladder's weighted replay), sketch residual is the remainder
/// (mass still sitting in the regulator's layers, never emitted — the
/// steady-state error the paper's decode bounds).
enum class Cause : std::uint8_t {
  kSketchResidual = 0,
  kWsafEviction = 1,
  kShedCompensation = 2,
  kCauseCount
};

inline constexpr unsigned kCauseCount =
    static_cast<unsigned>(Cause::kCauseCount);

[[nodiscard]] constexpr const char* to_string(Cause c) noexcept {
  switch (c) {
    case Cause::kSketchResidual: return "sketch_residual";
    case Cause::kWsafEviction: return "wsaf_eviction";
    case Cause::kShedCompensation: return "shed_compensation";
    case Cause::kCauseCount: break;
  }
  return "?";
}

/// Seed of the sampling hash. One constant for every shard (MultiCoreEngine
/// decorrelates engine seeds, never this one), so every worker audits the
/// same slice of flow space.
inline constexpr std::uint64_t kSampleSeed = 0xa0d17'5eedULL;

/// |relative error| beyond which a comparison counts as an undercount /
/// overcount and gets attributed a cause.
inline constexpr double kErrorTolerance = 0.05;

struct AuditConfig {
  /// Sample 1/2^shift of the hash ring (default 1/256). 0 audits every
  /// flow (differential tests); >= 64 disables sampling entirely.
  unsigned sample_shift = 8;
  /// Ground-truth heavy-hitter thresholds — normally mirrored from the
  /// engine's HeavyHitterConfig by the engine itself. 0 disables that
  /// detector's recall accounting.
  double packet_threshold = 0;
  double byte_threshold = 0;
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;
};

/// Engine estimate handed to record_comparison(): the type
/// InstaMeasure::query() returns (InstaMeasure::FlowEstimate).
struct Estimate {
  double packets = 0;
  double bytes = 0;
  bool in_wsaf = false;
};

/// Point-in-time aggregate of the audit plane. Raw sums are included so a
/// cross-shard merge (QueryEngine::audit()) can recompute the ratios
/// exactly instead of averaging averages.
struct AuditSummary {
  std::uint64_t sampled_flows = 0;    ///< distinct flows in the shadow
  std::uint64_t sampled_packets = 0;  ///< packets landing in the slice
  std::uint64_t comparisons = 0;      ///< estimate read-backs performed
  double sum_abs_rel_err = 0;         ///< Σ|est-true|/true  (packets)
  double sum_rel_err = 0;             ///< Σ (est-true)/true (signed bias)
  double are = 0;                     ///< sum_abs_rel_err / comparisons
  double mean_rel_bias = 0;           ///< sum_rel_err / comparisons
  std::uint64_t undercount = 0;       ///< comparisons below -tolerance
  std::uint64_t overcount = 0;        ///< comparisons above +tolerance
  std::array<std::uint64_t, kCauseCount> causes{};  ///< undercounts by cause
  std::uint64_t true_hh = 0;          ///< sampled (flow, metric) truth crossings
  std::uint64_t detected_true_hh = 0; ///< of those, detected by the engine
  std::uint64_t detections = 0;       ///< engine detections on sampled flows
  double recall = 0;                  ///< detected_true_hh / true_hh (1 if no truth)
  double precision = 0;               ///< detected_true_hh / detections (1 if none)
};

/// Merge per-shard summaries (sum counts, recompute ratios). Percentile-ish
/// views live in the shared telemetry histograms, which aggregate across
/// shards already.
[[nodiscard]] AuditSummary merge(const AuditSummary& a, const AuditSummary& b);

/// Exact shadow account for one sampled flow. Owned by the auditor's map;
/// pointers returned by observe() are valid until reset().
struct FlowAudit {
  netio::FlowKey key;
  double packets = 0;  ///< exact count of packets the engine was offered
  double bytes = 0;
  std::uint64_t first_ns = 0;
  std::uint64_t last_ns = 0;
  std::uint64_t pkt_cross_ns = 0;   ///< truth crossed packet_threshold (0 = not yet)
  std::uint64_t byte_cross_ns = 0;
  std::uint64_t detected_pkt_ns = 0;  ///< engine raised the alarm (0 = not yet)
  std::uint64_t detected_byte_ns = 0;
  bool wsaf_seen = false;     ///< a saturation event accumulated this flow
  bool shed_touched = false;  ///< counts passed through shed-ladder replay
};

class Auditor {
 public:
  explicit Auditor(const AuditConfig& config);

  /// Fast-path membership test + shadow update. Returns nullptr for the
  /// (vast majority of) unsampled packets after one hash + mask test; for
  /// sampled packets it updates the exact account and returns the flow's
  /// record when a comparison is due this packet (caller then reads back
  /// the engine estimate and calls record_comparison).
  FlowAudit* observe(const netio::FlowKey& key, std::uint32_t wire_len,
                     std::uint64_t now_ns) {
    const std::uint64_t h = key.hash(kSampleSeed);
    if ((h & sample_mask_) != 0) return nullptr;
    return observe_sampled(h, key, wire_len, now_ns);
  }

  /// Compare the engine's current estimate against the shadow truth:
  /// updates ARE/bias accumulators, the error histogram, attribution
  /// counters, and emits a kAudit trace event (payload = signed relative
  /// error; aux = code | pressure<<8 where code 0 = within tolerance,
  /// 1..3 = Cause+1 for undercounts, 4 = overcount).
  void record_comparison(const FlowAudit& flow, const Estimate& est,
                         int pressure_level);

  /// Lifecycle signals from the engine (rare paths):
  /// a saturation event accumulated `key` into the WSAF.
  void on_accumulate(const netio::FlowKey& key);
  /// The engine raised a heavy-hitter alarm for `key`.
  void on_detection(const netio::FlowKey& key, bool by_bytes,
                    std::uint64_t now_ns);
  /// `key`'s counts include shed-ladder weighted replay (weight > 1 means
  /// this record stands for `weight` dropped packets).
  void note_shed(const netio::FlowKey& key, std::uint64_t weight);

  /// End-of-run (or epoch) exactness pass: re-compare EVERY audited flow
  /// against `estimator` and overwrite the streaming accumulators with the
  /// result, so are/recall in summary() equal the offline
  /// analysis::metrics computation over the sampled slice. The engine
  /// wraps its query() read-back into `estimator`. Writer thread only.
  void final_sweep(const std::function<Estimate(const netio::FlowKey&)>&
                       estimator);

  /// Thread-safe aggregate snapshot (relaxed atomic reads; never touches
  /// the shadow map).
  [[nodiscard]] AuditSummary summary() const;

  [[nodiscard]] bool sampled(const netio::FlowKey& key) const {
    return (key.hash(kSampleSeed) & sample_mask_) == 0;
  }
  [[nodiscard]] const AuditConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t shadow_flows() const noexcept {
    return flows_.size();
  }

  void reset();

 private:
  FlowAudit* observe_sampled(std::uint64_t sample_hash,
                             const netio::FlowKey& key, std::uint32_t wire_len,
                             std::uint64_t now_ns);
  void classify(const FlowAudit& flow, const Estimate& est, double rel_err,
                int pressure_level);
  [[nodiscard]] Cause cause_of(const FlowAudit& flow,
                               const Estimate& est) const;
  void refresh_gauges();

  /// Relaxed add for single-writer atomic doubles (same discipline as the
  /// telemetry gauge cells: one writer, any-thread readers).
  static void add_relaxed(std::atomic<double>& cell, double delta) {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }
  static void add_relaxed(std::atomic<std::uint64_t>& cell,
                          std::uint64_t delta = 1) {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }
  /// Same, publishing every earlier write to a reader that loads the cell
  /// with acquire (summary() orders detected_true_hh_ this way).
  static void add_release(std::atomic<std::uint64_t>& cell) {
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

  AuditConfig config_;
  std::uint64_t sample_mask_ = 0;  ///< high bits; 0 samples everything
  std::unordered_map<std::uint64_t, FlowAudit> flows_;  ///< by sample hash

  // Aggregates: single-writer relaxed atomics, readable from any thread.
  std::atomic<std::uint64_t> sampled_flows_{0};
  std::atomic<std::uint64_t> sampled_packets_{0};
  std::atomic<std::uint64_t> comparisons_{0};
  std::atomic<double> sum_abs_rel_err_{0};
  std::atomic<double> sum_rel_err_{0};
  std::atomic<std::uint64_t> undercount_{0};
  std::atomic<std::uint64_t> overcount_{0};
  std::array<std::atomic<std::uint64_t>, kCauseCount> causes_{};
  std::atomic<std::uint64_t> true_hh_{0};
  std::atomic<std::uint64_t> detected_true_hh_{0};
  std::atomic<std::uint64_t> detections_{0};

  telemetry::Counter tel_sampled_packets_;
  telemetry::Counter tel_comparisons_;
  telemetry::Counter tel_undercount_;
  telemetry::Counter tel_overcount_;
  std::array<telemetry::Counter, kCauseCount> tel_causes_;
  telemetry::Gauge tel_sampled_flows_;
  telemetry::Gauge tel_are_;
  telemetry::Gauge tel_rel_bias_;
  telemetry::Gauge tel_recall_;
  telemetry::Gauge tel_precision_;
  telemetry::Gauge tel_true_hh_;
  telemetry::Histogram tel_rel_error_ppm_;
  telemetry::Histogram tel_detect_delay_ns_;
  telemetry::TraceRecorder* trace_ = nullptr;
  unsigned trace_track_ = 0;
};

}  // namespace instameasure::audit
