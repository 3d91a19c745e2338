#include "core/instameasure.h"

#include <algorithm>
#include <array>
#include <chrono>

namespace instameasure::core {

namespace {

/// Batch chunk size: large enough to amortize the pipeline passes and give
/// the prefetcher runway, small enough that the per-chunk scratch (hashes,
/// pending events) stays a few KB of hot stack.
constexpr std::size_t kBatchChunk = 64;

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t ns_between(SteadyClock::time_point a,
                                       SteadyClock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Push the engine's registry/labels (and flight recorder) down into the
/// sub-structure configs so one assignment at the top instruments the
/// whole stack.
[[nodiscard]] EngineConfig propagated(EngineConfig config) {
  // The WSAF is indexed by hashes the engine computes with config.seed, so
  // the table's own seed (which stamps view flow_hashes and the snapshot
  // header) must be the same value — otherwise views and snapshots would
  // describe a hash domain the slots were never derived from.
  config.wsaf.seed = config.seed;
  if (config.registry != nullptr) {
    if (config.regulator.registry == nullptr) {
      config.regulator.registry = config.registry;
      config.regulator.labels = config.labels;
    }
    if (config.wsaf.registry == nullptr) {
      config.wsaf.registry = config.registry;
      config.wsaf.labels = config.labels;
    }
  }
  if (config.trace != nullptr) {
    if (config.regulator.trace == nullptr) {
      config.regulator.trace = config.trace;
      config.regulator.trace_track = config.trace_track;
    }
    if (config.wsaf.trace == nullptr) {
      config.wsaf.trace = config.trace;
      config.wsaf.trace_track = config.trace_track;
    }
  }
  if (config.enable_audit) {
    if (config.audit.registry == nullptr && config.registry != nullptr) {
      config.audit.registry = config.registry;
      config.audit.labels = config.labels;
    }
    if (config.audit.trace == nullptr && config.trace != nullptr) {
      config.audit.trace = config.trace;
      config.audit.trace_track = config.trace_track;
    }
    // The auditor's ground-truth detector mirrors the engine's thresholds
    // unless the caller audits against different ones deliberately.
    if (config.audit.packet_threshold == 0) {
      config.audit.packet_threshold = config.heavy_hitter.packet_threshold;
    }
    if (config.audit.byte_threshold == 0) {
      config.audit.byte_threshold = config.heavy_hitter.byte_threshold;
    }
  }
  if (config.shared_wsaf != nullptr) {
    // Shared-table mode: the private shard is a stub (uniform object shape,
    // near-zero memory), never instrumented — its series would read as a
    // dead shard next to the shared table's per-stripe ones — and never
    // published (the table's owner runs ONE publisher for all workers).
    // Applied last so the propagation above cannot re-wire the stub.
    config.wsaf.log2_entries = std::min(config.wsaf.log2_entries, 6U);
    config.wsaf.registry = nullptr;
    config.wsaf.trace = nullptr;
    config.publish_views = false;
  }
  return config;
}

}  // namespace

InstaMeasure::InstaMeasure(const EngineConfig& config)
    : config_(propagated(config)),
      regulator_(config_.regulator),
      wsaf_(config_.wsaf),
      shared_(config_.shared_wsaf),
      trace_(config_.trace),
      trace_track_(config_.trace_track),
      perf_(config_.perf) {
  if (config.track_top_k > 0) tracker_.emplace(config.track_top_k);
  if (config_.enable_audit) {
    audit_ = std::make_unique<audit::Auditor>(config_.audit);
  }
  if (config_.publish_views) {
    auto pub = config_.publish;
    // Inherit the engine's instrumentation wiring unless the caller set
    // its own (same propagation rule as the regulator/WSAF configs).
    if (pub.registry == nullptr && config_.registry != nullptr) {
      pub.registry = config_.registry;
      pub.labels = config_.labels;
    }
    if (pub.trace == nullptr && config_.trace != nullptr) {
      pub.trace = config_.trace;
      pub.trace_track = config_.trace_track;
    }
    publisher_ = std::make_unique<ViewPublisher>(pub);
  }
  sample_mask_ = config_.telemetry_sample_shift >= 64
                     ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << config_.telemetry_sample_shift) - 1;
  if (config_.registry != nullptr) {
    auto& reg = *config_.registry;
    tel_detections_ =
        reg.counter("im_engine_detections_total",
                    "Heavy-hitter detections raised", config_.labels);
    tel_ips_pps_ratio_ = reg.gauge(
        "im_engine_ips_pps_ratio",
        "WSAF insertions per packet (the paper's ips/pps, ~0.01)",
        config_.labels);
    tel_reported_flows_ = reg.gauge(
        "im_engine_reported_flows",
        "Flows held in the already-reported heavy-hitter sets",
        config_.labels);
    tel_process_ns_ = reg.histogram(
        "im_engine_process_ns",
        "Per-packet process() wall time, sampled every 2^shift packets",
        config_.labels);
    tel_event_accumulate_ns_ = reg.histogram(
        "im_engine_event_accumulate_ns",
        "Saturation-event-to-WSAF-insert wall time", config_.labels);
    tel_detection_latency_ns_ = reg.histogram(
        "im_engine_detection_latency_ns",
        "Trace time from a flow's WSAF first-seen to its detection",
        config_.labels);
  }
}

void InstaMeasure::process(const netio::PacketRecord& rec) {
  const std::uint64_t seq = pkt_seq_++;
  const bool sampled = telemetry::kEnabled && (seq & sample_mask_) == 0;
  SteadyClock::time_point t0;
  if (sampled) t0 = SteadyClock::now();

  const std::uint64_t flow_hash = rec.key.hash(config_.seed);
  if constexpr (telemetry::kEnabled) {
    if (trace_) {
      trace_->emit(trace_track_, telemetry::TraceEventKind::kPacket,
                   flow_hash, static_cast<double>(rec.wire_len));
    }
  }
  const auto event = regulator_.offer(flow_hash, rec.wire_len);
  if (event) {
    SteadyClock::time_point e0;
    if constexpr (telemetry::kEnabled) e0 = SteadyClock::now();
    const auto totals = wsaf_accumulate(rec.key, flow_hash,
                                        event->est_packets, event->est_bytes,
                                        rec.timestamp_ns);
    if (audit_) audit_->on_accumulate(rec.key);
    if constexpr (telemetry::kEnabled) {
      tel_event_accumulate_ns_.record(ns_between(e0, SteadyClock::now()));
      // The ratio moves only when an insertion happens, so updating it on
      // the (rare, ~1%) event path keeps the gauge live for free.
      tel_ips_pps_ratio_.set(regulator_.regulation_rate());
    }
    if (tracker_) {
      tracker_->update(rec.key, flow_hash, totals.packets, totals.bytes,
                       totals.first_seen_ns, rec.timestamp_ns);
    }
    if (config_.heavy_hitter.packet_threshold > 0 ||
        config_.heavy_hitter.byte_threshold > 0) {
      check_heavy_hitter(rec.key, flow_hash, totals.packets, totals.bytes,
                         totals.first_seen_ns, rec.timestamp_ns);
    }
  }
  if (audit_) {
    // Observe AFTER the engine absorbed the packet so a due comparison
    // reads an estimate that includes it.
    if (auto* flow =
            audit_->observe(rec.key, rec.wire_len, rec.timestamp_ns)) {
      audit_->record_comparison(
          *flow, audit_estimate(rec.key, flow_hash),
          static_cast<int>(pressure().level), rec.timestamp_ns);
    }
  }
  if (publisher_) publisher_->maybe_publish(wsaf_, rec.timestamp_ns);

  if (sampled) tel_process_ns_.record(ns_between(t0, SteadyClock::now()));
}

void InstaMeasure::process_batch(std::span<const netio::PacketRecord> batch) {
  while (!batch.empty()) {
    const std::size_t n = std::min(batch.size(), kBatchChunk);
    process_chunk(batch.data(), n);
    batch = batch.subspan(n);
  }
}

void InstaMeasure::process_batch(
    std::span<const netio::PacketRecord* const> batch) {
  // Gather the pointed-to records into a contiguous chunk: 24-byte copies
  // are noise next to the DRAM lines the pipeline exists to hide, and the
  // compacted chunk keeps stage 1 streaming instead of pointer-chasing.
  std::array<netio::PacketRecord, kBatchChunk> chunk;
  while (!batch.empty()) {
    const std::size_t n = std::min(batch.size(), kBatchChunk);
    for (std::size_t i = 0; i < n; ++i) chunk[i] = *batch[i];
    process_chunk(chunk.data(), n);
    batch = batch.subspan(n);
  }
}

void InstaMeasure::process_chunk(const netio::PacketRecord* recs,
                                 std::size_t n) {
  // Telemetry sampling must stay in lockstep with the scalar path: count
  // how many sequence numbers in this chunk the scalar path would have
  // timed, measure the chunk once, and spread the mean over that many
  // histogram samples — counts match process() exactly, values become the
  // batch-amortized per-packet time.
  std::size_t sampled = 0;
  if constexpr (telemetry::kEnabled) {
    for (std::size_t i = 0; i < n; ++i) {
      if (((pkt_seq_ + i) & sample_mask_) == 0) ++sampled;
    }
  }
  pkt_seq_ += n;
  SteadyClock::time_point t0;
  if (telemetry::kEnabled && sampled != 0) t0 = SteadyClock::now();

  // Hardware-counter sampling: every 2^shift-th chunk brackets each stage
  // with a perf group read (profiler-owned cadence). An attached-but-
  // unavailable profiler costs one relaxed load here and nothing below.
  bool perf_sampled = false;
  if constexpr (telemetry::kPerfEnabled) {
    perf_sampled = perf_ != nullptr && perf_->begin_chunk();
    if (perf_sampled) perf_->stage_mark();
  }

  // Stage 1: every flow-key hash and virtual-vector layout for the burst,
  // computed once and reused by the regulator, both sketch layers, and the
  // WSAF below. Each flow's sketch lines are prefetched before its
  // (PRNG-heavy) layout is derived, so a line's DRAM round trip runs under
  // the remainder of this pass plus every earlier packet's update — whole
  // microseconds of cover against a few hundred nanoseconds of latency. A
  // distance-K rolling prefetch inside the update loop is not enough here:
  // the loaded word feeds an unpredictable saturation branch, and a
  // mispredict that waits on DRAM flushes all speculative overlap.
  std::array<std::uint64_t, kBatchChunk> hashes;
  std::array<sketch::VvLayout, kBatchChunk> layouts;
  const bool prefetch = config_.prefetch_distance != 0;
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = recs[i].key.hash(config_.seed);
    if (prefetch) regulator_.prefetch(hashes[i]);
    layouts[i] = regulator_.layout_of(hashes[i]);
  }
  if constexpr (telemetry::kPerfEnabled) {
    if (perf_sampled) {
      perf_->stage_commit(telemetry::PerfStage::kHashLayout, n);
    }
  }

  // Stage 2: regulator updates against warm lines. Saturation events are
  // parked instead of handled inline so their WSAF slot prefetches get the
  // rest of the chunk as latency cover.
  struct Pending {
    std::uint32_t index;
    SaturationEvent event;
  };
  std::array<Pending, kBatchChunk> pending;
  std::size_t n_pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (telemetry::kEnabled) {
      if (trace_) {
        trace_->emit(trace_track_, telemetry::TraceEventKind::kPacket,
                     hashes[i], static_cast<double>(recs[i].wire_len));
      }
    }
    if (const auto event =
            regulator_.offer(hashes[i], recs[i].wire_len, layouts[i])) {
      // Shared mode: slot addresses move under another worker's stripe
      // resize, so speculative WSAF prefetching is off (the stripe lock
      // will serialize the real access anyway).
      if (prefetch && shared_ == nullptr) wsaf_.prefetch(hashes[i]);
      pending[n_pending].index = static_cast<std::uint32_t>(i);
      pending[n_pending].event = *event;
      ++n_pending;
    }
  }
  if constexpr (telemetry::kPerfEnabled) {
    if (perf_sampled) {
      perf_->stage_commit(telemetry::PerfStage::kRegulatorUpdate, n);
    }
  }

  // Stage 3: drain the (few) events into the WSAF in packet order — the
  // same accumulate/tracker/detection sequence the scalar path runs, so
  // totals, detection order, and telemetry counts are identical.
  for (std::size_t p = 0; p < n_pending; ++p) {
    const auto& rec = recs[pending[p].index];
    const auto flow_hash = hashes[pending[p].index];
    SteadyClock::time_point e0;
    if constexpr (telemetry::kEnabled) e0 = SteadyClock::now();
    const auto totals =
        wsaf_accumulate(rec.key, flow_hash, pending[p].event.est_packets,
                        pending[p].event.est_bytes, rec.timestamp_ns);
    if (audit_) audit_->on_accumulate(rec.key);
    if constexpr (telemetry::kEnabled) {
      tel_event_accumulate_ns_.record(ns_between(e0, SteadyClock::now()));
      tel_ips_pps_ratio_.set(regulator_.regulation_rate());
    }
    if (tracker_) {
      tracker_->update(rec.key, flow_hash, totals.packets, totals.bytes,
                       totals.first_seen_ns, rec.timestamp_ns);
    }
    if (config_.heavy_hitter.packet_threshold > 0 ||
        config_.heavy_hitter.byte_threshold > 0) {
      check_heavy_hitter(rec.key, flow_hash, totals.packets, totals.bytes,
                         totals.first_seen_ns, rec.timestamp_ns);
    }
  }
  if constexpr (telemetry::kPerfEnabled) {
    if (perf_sampled) {
      // Items for the drain stage are the drained saturation events, so
      // its per-item rates read as misses-per-WSAF-probe.
      perf_->stage_commit(telemetry::PerfStage::kWsafDrain, n_pending);
      perf_->end_chunk(n);
    }
  }

  // Audit pass: one loop over the chunk after the drain, so comparisons
  // read end-of-chunk estimates (the scalar path compares mid-stream; both
  // converge to the identical final_sweep numbers — the differential suite
  // pins that). Keeping it out of stages 1-3 leaves their prefetch overlap
  // untouched; the unsampled reject is one hash + mask test per packet.
  if (audit_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (auto* flow = audit_->observe(recs[i].key, recs[i].wire_len,
                                       recs[i].timestamp_ns)) {
        audit_->record_comparison(
            *flow, audit_estimate(recs[i].key, hashes[i]),
            static_cast<int>(pressure().level), recs[i].timestamp_ns);
      }
    }
  }

  if (publisher_) {
    // One cadence tick per chunk: `n` packets at the last record's trace
    // time. Publishing between chunks (never mid-chunk) keeps the batched
    // and scalar paths' WSAF state bit-identical — fill_view only reads.
    publisher_->maybe_publish(wsaf_, recs[n - 1].timestamp_ns, n);
  }

  if (telemetry::kEnabled && sampled != 0) {
    const auto mean_ns = ns_between(t0, SteadyClock::now()) /
                         static_cast<std::uint64_t>(n);
    for (std::size_t s = 0; s < sampled; ++s) tel_process_ns_.record(mean_ns);
  }
}

void InstaMeasure::check_heavy_hitter(const netio::FlowKey& key,
                                      std::uint64_t flow_hash, double packets,
                                      double bytes,
                                      std::uint64_t first_seen_ns,
                                      std::uint64_t now_ns) {
  const auto& hh = config_.heavy_hitter;
  bool reported = false;
  if (hh.packet_threshold > 0 && packets >= hh.packet_threshold &&
      reported_pkt_.insert(flow_hash).second) {
    detections_.push_back({key, now_ns, packets, TopKMetric::kPackets});
    tel_detections_.inc();
    tel_detection_latency_ns_.record(now_ns - first_seen_ns);
    if constexpr (telemetry::kEnabled) {
      if (trace_) {
        // payload = trace-clock first-seen-to-alarm latency, so the stage
        // report reads the paper's detection delay straight off the event.
        trace_->emit(trace_track_, telemetry::TraceEventKind::kDetection,
                     flow_hash, static_cast<double>(now_ns - first_seen_ns),
                     static_cast<std::uint32_t>(TopKMetric::kPackets));
      }
    }
    if (audit_) audit_->on_detection(key, /*by_bytes=*/false, now_ns);
    reported = true;
  }
  if (hh.byte_threshold > 0 && bytes >= hh.byte_threshold &&
      reported_byte_.insert(flow_hash).second) {
    detections_.push_back({key, now_ns, bytes, TopKMetric::kBytes});
    tel_detections_.inc();
    tel_detection_latency_ns_.record(now_ns - first_seen_ns);
    if constexpr (telemetry::kEnabled) {
      if (trace_) {
        trace_->emit(trace_track_, telemetry::TraceEventKind::kDetection,
                     flow_hash, static_cast<double>(now_ns - first_seen_ns),
                     static_cast<std::uint32_t>(TopKMetric::kBytes));
      }
    }
    if (audit_) audit_->on_detection(key, /*by_bytes=*/true, now_ns);
    reported = true;
  }
  if (reported) {
    tel_reported_flows_.set(static_cast<double>(reported_flows()));
  }
}

audit::Estimate InstaMeasure::audit_estimate(const netio::FlowKey& key,
                                             std::uint64_t flow_hash) const {
  // query() restated so the auditor sees exactly what a caller would.
  audit::Estimate est;
  if (const auto entry = wsaf_lookup(key, flow_hash)) {
    est.packets = entry->packets;
    est.bytes = entry->bytes;
    est.in_wsaf = true;
  }
  est.packets += regulator_.residual_packets(flow_hash);
  est.bytes += regulator_.residual_bytes(flow_hash);
  return est;
}

void InstaMeasure::audit_final_sweep() {
  if (!audit_) return;
  audit_->final_sweep(
      [this](const netio::FlowKey& key) {
        return audit_estimate(key, key.hash(config_.seed));
      },
      wsaf_latest_ns());
}

InstaMeasure::FlowEstimate InstaMeasure::query(
    const netio::FlowKey& key) const {
  const std::uint64_t flow_hash = key.hash(config_.seed);
  FlowEstimate est;
  if (const auto entry = wsaf_lookup(key, flow_hash)) {
    est.packets = entry->packets;
    est.bytes = entry->bytes;
    est.in_wsaf = true;
  }
  est.packets += regulator_.residual_packets(flow_hash);
  est.bytes += regulator_.residual_bytes(flow_hash);
  return est;
}

void InstaMeasure::clear_detections() {
  detections_.clear();
  reported_pkt_.clear();
  reported_byte_.clear();
  tel_reported_flows_.set(0);
}

void InstaMeasure::reset() {
  regulator_.reset();
  wsaf_.reset();
  if (tracker_) tracker_->reset();
  if (audit_) audit_->reset();
  clear_detections();
}

}  // namespace instameasure::core
