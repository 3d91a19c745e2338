#include "core/instameasure.h"

#include <algorithm>
#include <array>
#include <chrono>

namespace instameasure::core {

namespace {

/// Batch chunk size: large enough to amortize the per-chunk work of the
/// stage split (one perf sample, one publish tick), small enough that the
/// per-chunk scratch (hashes, memo-entry pointers, pending events) stays a
/// few KB of hot stack.
constexpr std::size_t kBatchChunk = 64;

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t ns_between(SteadyClock::time_point a,
                                       SteadyClock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Multiples of 2^shift in [first, first + n): ceil((first + n) / 2^shift)
/// minus ceil(first / 2^shift).
[[nodiscard]] std::uint64_t multiples_in(std::uint64_t first, std::size_t n,
                                         unsigned shift) noexcept {
  const std::uint64_t round_up = (std::uint64_t{1} << shift) - 1;
  return ((first + n + round_up) >> shift) - ((first + round_up) >> shift);
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
  return config;
}

}  // namespace

InstaMeasure::InstaMeasure(const EngineConfig& config)
    : config_(propagated(config)),
      regulator_(config_.regulator),
      wsaf_(config_.wsaf),
      trace_(config_.trace),
      trace_track_(config_.trace_track),
      perf_(config_.perf) {
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
  // Only a registry can read the timing histograms, so without one the
  // engine reads no clock; a shift of 64 or more samples nothing.
  timed_ = config_.registry != nullptr && config_.telemetry_sample_shift < 64;
  if (timed_) {
    sample_mask_ = (std::uint64_t{1} << config_.telemetry_sample_shift) - 1;
  }
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
        "Saturation-event-to-WSAF-insert wall time, for the events of "
        "packets sampled as in im_engine_process_ns",
        config_.labels);
    tel_detection_latency_ns_ = reg.histogram(
        "im_engine_detection_latency_ns",
        "Trace time from a flow's WSAF first-seen to its detection",
        config_.labels);
  }
}

void InstaMeasure::process(const netio::PacketRecord& rec) {
  const bool timed = sampled(pkt_seq_++);
  SteadyClock::time_point t0;
  if (timed) t0 = SteadyClock::now();

  const std::uint64_t flow_hash = rec.key.hash(config_.seed);
  if (trace_) {
    trace_->emit(trace_track_, telemetry::TraceEventKind::kPacket,
                 flow_hash, static_cast<double>(rec.wire_len));
  }
  if (const auto event = regulator_.offer(flow_hash, rec.wire_len)) {
    drain_event(rec, flow_hash, *event, timed);
  }
  if (audit_) {
    // Observe AFTER the engine absorbed the packet so a due comparison
    // reads an estimate that includes it.
    if (auto* flow =
            audit_->observe(rec.key, rec.wire_len, rec.timestamp_ns)) {
      audit_->record_comparison(*flow, estimate(rec.key, flow_hash),
                                static_cast<int>(pressure().level));
    }
  }
  if (publisher_) publisher_->maybe_publish(wsaf_, rec.timestamp_ns);

  if (timed) tel_process_ns_.record(ns_between(t0, SteadyClock::now()));
}

void InstaMeasure::drain_event(const netio::PacketRecord& rec,
                               std::uint64_t flow_hash,
                               const SaturationEvent& event, bool timed) {
  SteadyClock::time_point e0;
  if (timed) e0 = SteadyClock::now();
  const auto totals = wsaf_.accumulate(rec.key, flow_hash, event.est_packets,
                                       event.est_bytes, rec.timestamp_ns);
  if (audit_) audit_->on_accumulate(rec.key);
  if (timed) {
    tel_event_accumulate_ns_.record(ns_between(e0, SteadyClock::now()));
  }
  if (config_.registry != nullptr) {
    // The ratio moves only when an insertion happens, so updating it on
    // the (rare, ~1%) event path keeps the gauge live for free.
    tel_ips_pps_ratio_.set(regulator_.regulation_rate());
  }
  if (config_.heavy_hitter.packet_threshold > 0 ||
      config_.heavy_hitter.byte_threshold > 0) {
    check_heavy_hitter(rec.key, flow_hash, totals.packets, totals.bytes,
                       totals.first_seen_ns, rec.timestamp_ns);
  }
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
  // Gather the pointed-to records into a contiguous chunk of 32-byte
  // copies, so every stage reads one array instead of chasing pointers.
  // The gather is not free: an rdtsc-bracketed single-thread pass over
  // the benchmark's `caida` workload measured it at 14.5-14.8 cycles per
  // packet (4-vCPU KVM guest, Intel Xeon).
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
  // batch-amortized per-packet time. Stage 3 times the events of the same
  // sampled packets the scalar path times.
  const std::uint64_t first_seq = pkt_seq_;
  pkt_seq_ += n;
  const std::uint64_t timed_packets =
      timed_ ? multiples_in(first_seq, n, config_.telemetry_sample_shift) : 0;
  SteadyClock::time_point t0;
  if (timed_packets != 0) t0 = SteadyClock::now();

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
  // WSAF below. Each packet keeps a pointer to its layout-memo entry, not a
  // copy of the layout. Running the chunk's hashes and memo lookups back
  // to back, apart from the updates, is the stage split that the batch
  // path's gain over process() comes from (docs/PERFORMANCE.md).
  std::array<std::uint64_t, kBatchChunk> hashes;
  std::array<const FlowRegulator::MemoEntry*, kBatchChunk> entries;
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = recs[i].key.hash(config_.seed);
    entries[i] = &regulator_.memo_entry(hashes[i]);
  }
  if constexpr (telemetry::kPerfEnabled) {
    if (perf_sampled) {
      perf_->stage_commit(telemetry::PerfStage::kHashLayout, n);
    }
  }

  // Stage 2: regulator updates, one sketch word per packet (two on an L1
  // saturation). Saturation events are parked instead of handled inline,
  // so this loop never enters the WSAF.
  struct Pending {
    std::uint32_t index;
    SaturationEvent event;
  };
  std::array<Pending, kBatchChunk> pending;
  std::size_t n_pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (trace_) {
      trace_->emit(trace_track_, telemetry::TraceEventKind::kPacket,
                   hashes[i], static_cast<double>(recs[i].wire_len));
    }
    // A later packet of this chunk whose flow shares the memo index
    // overwrote the entry stage 1 found: derive it again.
    const FlowRegulator::MemoEntry* entry = entries[i];
    if (entry->flow_hash != hashes[i]) [[unlikely]] {
      entry = &regulator_.memo_entry(hashes[i]);
    }
    if (const auto event =
            regulator_.offer(hashes[i], recs[i].wire_len, entry->layout)) {
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
  // same accumulate/detection sequence the scalar path runs, so
  // totals, detection order, and telemetry counts are identical.
  for (std::size_t p = 0; p < n_pending; ++p) {
    const auto i = pending[p].index;
    drain_event(recs[i], hashes[i], pending[p].event, sampled(first_seq + i));
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
  // pins that). The unsampled reject is one hash + mask test per packet.
  if (audit_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (auto* flow = audit_->observe(recs[i].key, recs[i].wire_len,
                                       recs[i].timestamp_ns)) {
        audit_->record_comparison(*flow, estimate(recs[i].key, hashes[i]),
                                  static_cast<int>(pressure().level));
      }
    }
  }

  if (publisher_) {
    // One cadence tick per chunk: `n` packets at the last record's trace
    // time. Publishing between chunks (never mid-chunk) keeps the batched
    // and scalar paths' WSAF state bit-identical — fill_view only reads.
    publisher_->maybe_publish(wsaf_, recs[n - 1].timestamp_ns, n);
  }

  if (timed_packets != 0) {
    const auto mean_ns = ns_between(t0, SteadyClock::now()) /
                         static_cast<std::uint64_t>(n);
    for (std::uint64_t s = 0; s < timed_packets; ++s) {
      tel_process_ns_.record(mean_ns);
    }
  }
}

void InstaMeasure::check_heavy_hitter(const netio::FlowKey& key,
                                      std::uint64_t flow_hash, double packets,
                                      double bytes,
                                      std::uint64_t first_seen_ns,
                                      std::uint64_t now_ns) {
  // A packet stamped before the flow's first-seen time (a backward capture
  // timestamp) reads as zero latency instead of wrapping around.
  const std::uint64_t latency_ns =
      now_ns > first_seen_ns ? now_ns - first_seen_ns : 0;
  const auto report = [&](TopKMetric metric, double value) {
    detections_.push_back({key, now_ns, value, metric});
    tel_detections_.inc();
    tel_detection_latency_ns_.record(latency_ns);
    if (trace_) {
      // payload = trace-clock first-seen-to-alarm latency, so the stage
      // report reads the paper's detection delay straight off the event.
      trace_->emit(trace_track_, telemetry::TraceEventKind::kDetection,
                   flow_hash, static_cast<double>(latency_ns),
                   static_cast<std::uint32_t>(metric));
    }
    if (audit_) {
      audit_->on_detection(key, metric == TopKMetric::kBytes, now_ns);
    }
  };
  const auto& hh = config_.heavy_hitter;
  bool reported = false;
  if (hh.packet_threshold > 0 && packets >= hh.packet_threshold &&
      reported_pkt_.insert(flow_hash).second) {
    report(TopKMetric::kPackets, packets);
    reported = true;
  }
  if (hh.byte_threshold > 0 && bytes >= hh.byte_threshold &&
      reported_byte_.insert(flow_hash).second) {
    report(TopKMetric::kBytes, bytes);
    reported = true;
  }
  if (reported) {
    tel_reported_flows_.set(static_cast<double>(reported_flows()));
  }
}

InstaMeasure::FlowEstimate InstaMeasure::estimate(
    const netio::FlowKey& key, std::uint64_t flow_hash) const {
  FlowEstimate est;
  if (const auto entry = wsaf_.lookup(key, flow_hash)) {
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
      [this](const netio::FlowKey& key) { return query(key); });
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
  if (audit_) audit_->reset();
  clear_detections();
}

}  // namespace instameasure::core
