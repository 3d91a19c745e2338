// InstaMeasure: the complete single-core measurement engine (paper §III–IV).
//
//   packet → FlowKey hash (once) → FlowRegulator (two-layer sketch)
//          → on L2 saturation: accumulate est_pkt/est_byte into WSAF
//          → on WSAF counter crossing a threshold: heavy-hitter detection
//
// Queries combine the WSAF record with the regulator's residual estimate so
// a flow's count is available at any moment ("online decoding") — the
// property that removes the remote collector from the loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "audit/auditor.h"
#include "core/flow_regulator.h"
#include "core/topk.h"
#include "core/view_publisher.h"
#include "core/wsaf_table.h"
#include "netio/packet.h"
#include "telemetry/perf_counters.h"

namespace instameasure::core {

struct HeavyHitterConfig {
  /// Detection thresholds; 0 disables that detector. The paper uses
  /// T = 0.05% of link capacity.
  double packet_threshold = 0;
  double byte_threshold = 0;
};

struct HhDetection {
  netio::FlowKey key;
  std::uint64_t detected_at_ns = 0;
  double value_at_detection = 0;
  TopKMetric metric = TopKMetric::kPackets;
};

struct EngineConfig {
  FlowRegulatorConfig regulator;
  WsafConfig wsaf;
  HeavyHitterConfig heavy_hitter;
  /// Seed of the single per-packet flow hash. Propagates into wsaf.seed
  /// (overriding it) so view flow_hashes and snapshot headers describe the
  /// hash domain the table is actually indexed by.
  std::uint64_t seed = 0xace;
  /// When set, engine + regulator + WSAF metrics are exported here, every
  /// series tagged with `labels` (MultiCoreEngine adds worker="N").
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  /// When set, per-stage flight-recorder events (packet, saturations, WSAF
  /// outcomes, detections) are recorded on `trace_track` — the engine's
  /// writer-thread ring; MultiCoreEngine assigns track = worker index.
  /// Propagates into the regulator and WSAF configs like `registry`.
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;
  /// Timing-histogram sampling: with a `registry` attached, every
  /// 2^shift-th packet is timed (steady_clock) together with the WSAF
  /// events it raises, amortizing the clock cost to <0.2 ns/packet at the
  /// default 1/256. Without a registry the engine reads no clock; a shift
  /// of 64 or more times nothing.
  unsigned telemetry_sample_shift = 8;
  /// Live query plane: when true, the engine owns a ViewPublisher and
  /// publishes WsafViews of its shard at the cadence in `publish` —
  /// readers reach them through view_channel() (typically via a
  /// QueryEngine) while packets keep flowing. The publish tick is one
  /// branch per scalar packet / one per 64-packet chunk when batched.
  bool publish_views = false;
  ViewPublishConfig publish{};
  /// When set, the batched pipeline samples hardware counters around each
  /// of its three stages (hash/layout, regulator update, WSAF drain) into
  /// this profiler — the im_perf_* gauges and kPerfCounters trace events.
  /// The profiler must be constructed on the thread that calls
  /// process()/process_batch() (perf groups count the opening thread);
  /// when perf is unavailable the per-chunk cost is one relaxed load.
  telemetry::PerfStageProfiler* perf = nullptr;
  /// Live accuracy audit: when true the engine owns an audit::Auditor
  /// that keeps an exact shadow account for the hash-sampled slice in
  /// `audit` and compares estimates against it inline — the im_audit_*
  /// series and kAudit trace events. The auditor inherits
  /// registry/labels/trace/track and the heavy-hitter thresholds unless
  /// `audit` sets its own. Costs one extra key hash per packet when on;
  /// enable_audit=false costs one null-pointer test per hook and leaves
  /// the estimates bit-identical.
  bool enable_audit = false;
  audit::AuditConfig audit{};
};

class InstaMeasure {
 public:
  explicit InstaMeasure(const EngineConfig& config);

  /// Fast path: one hash, one-two sketch word accesses, rare WSAF access.
  void process(const netio::PacketRecord& rec);

  /// Batched fast path. Semantically identical to calling process() on
  /// every record in order — bit-identical WSAF contents, detections, and
  /// counters for any batch size (the differential suite in
  /// tests/test_batch_equivalence.cpp is the contract) — but split into
  /// stages over chunks of up to 64 packets: every hash and layout-memo
  /// lookup first, then every regulator update, then the (rare) saturation
  /// events drained into the WSAF in packet order. Arbitrary span lengths
  /// are accepted; chunking is internal.
  void process_batch(std::span<const netio::PacketRecord> batch);

  /// Gather flavor for burst consumers that hold pointers into a queue
  /// (MultiCoreEngine workers). Identical semantics.
  void process_batch(std::span<const netio::PacketRecord* const> batch);

  /// packets/bytes plus in_wsaf (an elephant record exists); the auditor
  /// compares exactly this type.
  using FlowEstimate = audit::Estimate;

  /// Current estimate for one flow: WSAF record (if any) plus the
  /// regulator's residual.
  [[nodiscard]] FlowEstimate query(const netio::FlowKey& key) const {
    return estimate(key, key.hash(config_.seed));
  }

  [[nodiscard]] std::vector<TopKItem> top_k_packets(std::size_t k) const {
    return top_k(wsaf_, k, TopKMetric::kPackets);
  }
  [[nodiscard]] std::vector<TopKItem> top_k_bytes(std::size_t k) const {
    return top_k(wsaf_, k, TopKMetric::kBytes);
  }

  [[nodiscard]] const std::vector<HhDetection>& detections() const noexcept {
    return detections_;
  }

  [[nodiscard]] const FlowRegulator& regulator() const noexcept {
    return regulator_;
  }
  /// The engine's WSAF shard.
  [[nodiscard]] const WsafTable& wsaf() const noexcept { return wsaf_; }

  /// The query plane's reader endpoint (null unless publish_views). Hand
  /// it to a QueryEngine; safe to read from any thread while the engine
  /// processes packets.
  [[nodiscard]] const SnapshotChannel* view_channel() const noexcept {
    return publisher_ ? &publisher_->channel() : nullptr;
  }
  [[nodiscard]] const ViewPublisher* view_publisher() const noexcept {
    return publisher_.get();
  }

  /// Publish a fresh view immediately (writer thread only — the thread
  /// that calls process()). Used at end-of-run so the final view reflects
  /// every packet. Returns false when publishing is off or skipped.
  bool publish_view_now() {
    return publisher_ ? publisher_->publish_now(wsaf_, wsaf_.latest_ns())
                      : false;
  }

  /// The live accuracy auditor (null unless enable_audit). summary() is
  /// safe from any thread.
  [[nodiscard]] const audit::Auditor* auditor() const noexcept {
    return audit_.get();
  }

  /// Resilience hook: `rec`'s counts are about to be (or were) replayed
  /// `weight` times by the shed ladder — tells the auditor so errors on
  /// this flow attribute to shed compensation, not the sketch.
  void audit_note_shed(const netio::PacketRecord& rec, std::uint64_t weight) {
    if (audit_) audit_->note_shed(rec.key, weight);
  }

  /// End-of-run exactness pass: re-compares every audited flow against the
  /// engine's current estimate so im_audit_are / im_audit_recall equal the
  /// offline analysis::metrics result over the sampled slice. Writer
  /// thread only (reads the WSAF unsynchronized).
  void audit_final_sweep();

  /// Overload signal of the measurement state (currently the WSAF's
  /// occupancy/eviction pressure — the structure whose overload silently
  /// degrades accuracy). The runtime reports this and can shed on it.
  [[nodiscard]] WsafPressure pressure() const { return wsaf_.pressure(); }
  [[nodiscard]] std::uint64_t packets_processed() const noexcept {
    return regulator_.packets();
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Total memory of the measurement structures (sketches + WSAF), using the
  /// paper's logical entry accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return regulator_.config().total_memory_bytes() +
           wsaf_.logical_memory_bytes();
  }

  /// Flows currently remembered as already-reported heavy hitters. This
  /// state grows with distinct detections until cleared; the
  /// im_engine_reported_flows gauge tracks it so leakage is observable.
  [[nodiscard]] std::size_t reported_flows() const noexcept {
    return reported_pkt_.size() + reported_byte_.size();
  }

  /// Drop the detection log and the already-reported sets (e.g. at an epoch
  /// boundary) without touching the measurement structures.
  void clear_detections();

  void reset();

 private:
  /// One chunk (n <= kBatchChunk) of contiguous records through the
  /// three-stage batch pipeline.
  void process_chunk(const netio::PacketRecord* recs, std::size_t n);

  /// One saturation event into the WSAF and detectors — the sequence
  /// process() and process_chunk()'s drain stage share. `timed` says
  /// whether the packet that raised it is a timing sample.
  void drain_event(const netio::PacketRecord& rec, std::uint64_t flow_hash,
                   const SaturationEvent& event, bool timed);

  /// Whether the packet with sequence number `seq` is a timing sample.
  [[nodiscard]] bool sampled(std::uint64_t seq) const noexcept {
    return timed_ && (seq & sample_mask_) == 0;
  }

  void check_heavy_hitter(const netio::FlowKey& key, std::uint64_t flow_hash,
                          double packets, double bytes,
                          std::uint64_t first_seen_ns, std::uint64_t now_ns);

  /// The body of query(), for callers that already hold the flow hash.
  [[nodiscard]] FlowEstimate estimate(const netio::FlowKey& key,
                                      std::uint64_t flow_hash) const;

  EngineConfig config_;
  FlowRegulator regulator_;
  WsafTable wsaf_;
  std::unique_ptr<audit::Auditor> audit_;  ///< null unless enable_audit
  std::vector<HhDetection> detections_;
  std::unique_ptr<ViewPublisher> publisher_;  ///< null unless publish_views
  std::unordered_set<std::uint64_t> reported_pkt_;
  std::unordered_set<std::uint64_t> reported_byte_;
  std::uint64_t pkt_seq_ = 0;          ///< local sequence for sampling
  bool timed_ = false;                 ///< registry attached, shift < 64
  std::uint64_t sample_mask_ = 0;      ///< 2^telemetry_sample_shift - 1
  telemetry::Counter tel_detections_;
  telemetry::Gauge tel_ips_pps_ratio_;
  telemetry::Gauge tel_reported_flows_;
  telemetry::Histogram tel_process_ns_;           ///< sampled, wall time
  telemetry::Histogram tel_event_accumulate_ns_;  ///< sampled, wall time
  telemetry::Histogram tel_detection_latency_ns_; ///< trace time to detect
  telemetry::TraceRecorder* trace_ = nullptr;
  unsigned trace_track_ = 0;
  telemetry::PerfStageProfiler* perf_ = nullptr;
};

}  // namespace instameasure::core
