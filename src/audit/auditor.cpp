#include "audit/auditor.h"

#include <algorithm>
#include <cmath>

namespace instameasure::audit {

AuditSummary merge(const AuditSummary& a, const AuditSummary& b) {
  AuditSummary m;
  m.sampled_flows = a.sampled_flows + b.sampled_flows;
  m.sampled_packets = a.sampled_packets + b.sampled_packets;
  m.comparisons = a.comparisons + b.comparisons;
  m.sum_abs_rel_err = a.sum_abs_rel_err + b.sum_abs_rel_err;
  m.sum_rel_err = a.sum_rel_err + b.sum_rel_err;
  m.undercount = a.undercount + b.undercount;
  m.overcount = a.overcount + b.overcount;
  for (unsigned c = 0; c < kCauseCount; ++c) {
    m.causes[c] = a.causes[c] + b.causes[c];
  }
  m.true_hh = a.true_hh + b.true_hh;
  m.detected_true_hh = a.detected_true_hh + b.detected_true_hh;
  m.detections = a.detections + b.detections;
  if (m.comparisons > 0) {
    m.are = m.sum_abs_rel_err / static_cast<double>(m.comparisons);
    m.mean_rel_bias = m.sum_rel_err / static_cast<double>(m.comparisons);
  }
  m.recall = m.true_hh > 0 ? static_cast<double>(m.detected_true_hh) /
                                 static_cast<double>(m.true_hh)
                           : 1.0;
  m.precision = m.detections > 0 ? static_cast<double>(m.detected_true_hh) /
                                       static_cast<double>(m.detections)
                                 : 1.0;
  return m;
}

namespace {

/// Relative-error magnitudes land in a log-scale histogram as parts per
/// million, so 0.1% and 300% both resolve to distinct buckets.
[[nodiscard]] std::uint64_t to_ppm(double rel_err) noexcept {
  const double ppm = std::abs(rel_err) * 1e6;
  return ppm >= 1e18 ? std::uint64_t{1} << 60
                     : static_cast<std::uint64_t>(ppm);
}

}  // namespace

Auditor::Auditor(const AuditConfig& config)
    : config_(config),
      trace_(config.trace),
      trace_track_(config.trace_track) {
  // Sampled iff the top sample_shift bits of the sample hash are zero:
  // shift 0 audits everything, shift >= 64 audits nothing. Top bits keep
  // the selection independent of the WSAF's slot index (low bits).
  sample_mask_ = config_.sample_shift == 0 ? 0
                 : config_.sample_shift >= 64
                     ? ~std::uint64_t{0}
                     : ~std::uint64_t{0}
                           << (64 - config_.sample_shift);
  compare_mask_ = config_.compare_shift >= 64
                      ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << config_.compare_shift) - 1;
  if (config_.registry != nullptr) {
    auto& reg = *config_.registry;
    const auto& ls = config_.labels;
    tel_sampled_packets_ = reg.counter(
        "im_audit_sampled_packets_total",
        "Packets whose flow falls in the audited hash slice", ls);
    tel_comparisons_ = reg.counter(
        "im_audit_comparisons_total",
        "Estimate read-backs compared against the exact shadow", ls);
    tel_undercount_ = reg.counter(
        "im_audit_undercount_total",
        "Comparisons where the estimate undershot truth beyond tolerance",
        ls);
    tel_overcount_ = reg.counter(
        "im_audit_overcount_total",
        "Comparisons where the estimate overshot truth beyond tolerance", ls);
    for (unsigned c = 0; c < kCauseCount; ++c) {
      auto labels = ls;
      labels.push_back({"cause", to_string(static_cast<Cause>(c))});
      tel_causes_[c] = reg.counter(
          "im_audit_error_cause_total",
          "Audited undercounts attributed to a pipeline cause",
          std::move(labels));
    }
    tel_sampled_flows_ = reg.gauge(
        "im_audit_sampled_flows",
        "Distinct flows held in the exact shadow account", ls);
    tel_are_ = reg.gauge(
        "im_audit_are",
        "Average relative error (packets) over audited comparisons", ls);
    tel_rel_bias_ = reg.gauge(
        "im_audit_rel_bias",
        "Signed mean relative error (negative = undercount)", ls);
    tel_recall_ = reg.gauge(
        "im_audit_recall",
        "Detected fraction of ground-truth heavy hitters in the slice", ls);
    tel_precision_ = reg.gauge(
        "im_audit_precision",
        "Fraction of audited detections that are true heavy hitters", ls);
    tel_true_hh_ = reg.gauge(
        "im_audit_true_hh",
        "Ground-truth heavy-hitter crossings in the audited slice", ls);
    tel_rel_error_ppm_ = reg.histogram(
        "im_audit_rel_error_ppm",
        "Distribution of |relative error| in parts per million", ls);
    tel_detect_delay_ns_ = reg.histogram(
        "im_audit_detect_delay_ns",
        "Truth-threshold-crossing to engine-detection delay", ls);
  }
}

FlowAudit* Auditor::observe_sampled(std::uint64_t sample_hash,
                                    const netio::FlowKey& key,
                                    std::uint32_t wire_len,
                                    std::uint64_t now_ns) {
  const std::uint64_t seq =
      sampled_packets_.load(std::memory_order_relaxed);
  sampled_packets_.store(seq + 1, std::memory_order_relaxed);
  tel_sampled_packets_.inc();

  auto [it, inserted] = flows_.try_emplace(sample_hash);
  FlowAudit& flow = it->second;
  if (inserted) {
    flow.key = key;
    flow.first_ns = now_ns;
    add_relaxed(sampled_flows_);
    tel_sampled_flows_.set(static_cast<double>(flows_.size()));
  }
  flow.packets += 1;
  flow.bytes += wire_len;
  flow.last_ns = now_ns;

  // Ground-truth threshold crossings, stamped the moment the exact count
  // crosses — the reference edge the detect-delay histogram measures from.
  if (config_.packet_threshold > 0 && flow.pkt_cross_ns == 0 &&
      flow.packets >= config_.packet_threshold) {
    flow.pkt_cross_ns = now_ns;
    add_relaxed(true_hh_);
    if (flow.detected_pkt_ns != 0) {
      // Engine alarmed before the truth crossed (estimate ran ahead):
      // retroactively a true detection with zero delay.
      add_relaxed(detected_true_hh_);
      tel_detect_delay_ns_.record(0);
    }
    refresh_gauges();
  }
  if (config_.byte_threshold > 0 && flow.byte_cross_ns == 0 &&
      flow.bytes >= config_.byte_threshold) {
    flow.byte_cross_ns = now_ns;
    add_relaxed(true_hh_);
    if (flow.detected_byte_ns != 0) {
      add_relaxed(detected_true_hh_);
      tel_detect_delay_ns_.record(0);
    }
    refresh_gauges();
  }

  return (seq & compare_mask_) == 0 ? &flow : nullptr;
}

void Auditor::record_comparison(const FlowAudit& flow, const Estimate& est,
                                int pressure_level, std::uint64_t now_ns) {
  // Truth is never zero here (observe() counted this packet), so the
  // relative error is well defined.
  const double rel_err = (est.packets - flow.packets) / flow.packets;
  add_relaxed(comparisons_);
  add_relaxed(sum_abs_rel_err_, std::abs(rel_err));
  add_relaxed(sum_rel_err_, rel_err);
  tel_comparisons_.inc();
  tel_rel_error_ppm_.record(to_ppm(rel_err));
  classify(flow, est, rel_err, pressure_level, now_ns);
  refresh_gauges();
}

void Auditor::classify(const FlowAudit& flow, const Estimate& est,
                       double rel_err, int pressure_level,
                       std::uint64_t now_ns) {
  // aux cause field: 0 = within tolerance, otherwise Cause+1; the WSAF
  // pressure level at comparison time rides in bits 8+ so the flight
  // recorder can correlate error bursts with overload.
  std::uint32_t aux_cause = 0;
  if (rel_err < -config_.error_tolerance) {
    const Cause cause = cause_of(flow, est);
    add_relaxed(undercount_);
    add_relaxed(causes_[static_cast<unsigned>(cause)]);
    tel_undercount_.inc();
    tel_causes_[static_cast<unsigned>(cause)].inc();
    aux_cause = static_cast<std::uint32_t>(cause) + 1;
  } else if (rel_err > config_.error_tolerance) {
    add_relaxed(overcount_);
    tel_overcount_.inc();
    aux_cause = kCauseCount + 1;  // overcount marker, past the cause codes
  }
  if constexpr (telemetry::kEnabled) {
    if (trace_) {
      trace_->emit(trace_track_, telemetry::TraceEventKind::kAudit,
                   flow.key.hash(config_.sample_seed), rel_err,
                   aux_cause |
                       (static_cast<std::uint32_t>(pressure_level) << 8));
    }
  }
  (void)now_ns;
}

Cause Auditor::cause_of(const FlowAudit& flow, const Estimate& est) const {
  if (flow.wsaf_seen && !est.in_wsaf) return Cause::kWsafEviction;
  if (flow.shed_touched) return Cause::kShedCompensation;
  return Cause::kSketchResidual;
}

void Auditor::on_accumulate(const netio::FlowKey& key) {
  const std::uint64_t h = key.hash(config_.sample_seed);
  if ((h & sample_mask_) != 0) return;
  if (auto it = flows_.find(h); it != flows_.end()) {
    it->second.wsaf_seen = true;
  }
}

void Auditor::on_detection(const netio::FlowKey& key, bool by_bytes,
                           std::uint64_t now_ns) {
  const std::uint64_t h = key.hash(config_.sample_seed);
  if ((h & sample_mask_) != 0) return;
  auto it = flows_.find(h);
  if (it == flows_.end()) return;
  FlowAudit& flow = it->second;
  auto& detected_ns = by_bytes ? flow.detected_byte_ns : flow.detected_pkt_ns;
  if (detected_ns != 0) return;  // engine reports each (flow, metric) once
  detected_ns = now_ns == 0 ? 1 : now_ns;
  add_relaxed(detections_);
  const std::uint64_t cross_ns =
      by_bytes ? flow.byte_cross_ns : flow.pkt_cross_ns;
  if (cross_ns != 0) {
    add_relaxed(detected_true_hh_);
    tel_detect_delay_ns_.record(now_ns > cross_ns ? now_ns - cross_ns : 0);
  }
  // else: alarm before the truth crossed — resolved retroactively in
  // observe_sampled() if/when the exact count catches up.
  refresh_gauges();
}

void Auditor::note_shed(const netio::FlowKey& key, std::uint64_t weight) {
  if (weight <= 1) return;
  const std::uint64_t h = key.hash(config_.sample_seed);
  if ((h & sample_mask_) != 0) return;
  if (auto it = flows_.find(h); it != flows_.end()) {
    it->second.shed_touched = true;
  }
}

void Auditor::final_sweep(
    const std::function<Estimate(const netio::FlowKey&)>& estimator,
    std::uint64_t now_ns) {
  // Replace the streaming mid-run accumulators with one exact end-state
  // comparison per audited flow — the same per-flow relative-error formula
  // analysis::metrics applies offline, over the same slice, so the gauges
  // match the offline result identically (the differential suite's 1%
  // acceptance band is margin, not slack).
  double sum_abs = 0;
  double sum_signed = 0;
  std::uint64_t under = 0;
  std::uint64_t over = 0;
  std::array<std::uint64_t, kCauseCount> causes{};
  std::uint64_t n = 0;
  const int pressure = -1;  // not meaningful for an end-of-run sweep
  for (const auto& [hash, flow] : flows_) {
    if (flow.packets <= 0) continue;
    const Estimate est = estimator(flow.key);
    const double rel_err = (est.packets - flow.packets) / flow.packets;
    sum_abs += std::abs(rel_err);
    sum_signed += rel_err;
    ++n;
    tel_rel_error_ppm_.record(to_ppm(rel_err));
    if (rel_err < -config_.error_tolerance) {
      ++under;
      ++causes[static_cast<unsigned>(cause_of(flow, est))];
    } else if (rel_err > config_.error_tolerance) {
      ++over;
    }
    if constexpr (telemetry::kEnabled) {
      if (trace_) {
        std::uint32_t aux_cause = 0;
        if (rel_err < -config_.error_tolerance) {
          aux_cause = static_cast<std::uint32_t>(cause_of(flow, est)) + 1;
        } else if (rel_err > config_.error_tolerance) {
          aux_cause = kCauseCount + 1;
        }
        trace_->emit(trace_track_, telemetry::TraceEventKind::kAudit, hash,
                     rel_err, aux_cause);
      }
    }
  }
  (void)pressure;
  (void)now_ns;
  comparisons_.store(n, std::memory_order_relaxed);
  sum_abs_rel_err_.store(sum_abs, std::memory_order_relaxed);
  sum_rel_err_.store(sum_signed, std::memory_order_relaxed);
  undercount_.store(under, std::memory_order_relaxed);
  overcount_.store(over, std::memory_order_relaxed);
  for (unsigned c = 0; c < kCauseCount; ++c) {
    causes_[c].store(causes[c], std::memory_order_relaxed);
  }
  refresh_gauges();
}

AuditSummary Auditor::summary() const {
  AuditSummary s;
  s.sampled_flows = sampled_flows_.load(std::memory_order_relaxed);
  s.sampled_packets = sampled_packets_.load(std::memory_order_relaxed);
  s.comparisons = comparisons_.load(std::memory_order_relaxed);
  s.sum_abs_rel_err = sum_abs_rel_err_.load(std::memory_order_relaxed);
  s.sum_rel_err = sum_rel_err_.load(std::memory_order_relaxed);
  s.undercount = undercount_.load(std::memory_order_relaxed);
  s.overcount = overcount_.load(std::memory_order_relaxed);
  for (unsigned c = 0; c < kCauseCount; ++c) {
    s.causes[c] = causes_[c].load(std::memory_order_relaxed);
  }
  s.true_hh = true_hh_.load(std::memory_order_relaxed);
  s.detected_true_hh = detected_true_hh_.load(std::memory_order_relaxed);
  s.detections = detections_.load(std::memory_order_relaxed);
  if (s.comparisons > 0) {
    s.are = s.sum_abs_rel_err / static_cast<double>(s.comparisons);
    s.mean_rel_bias = s.sum_rel_err / static_cast<double>(s.comparisons);
  }
  s.recall = s.true_hh > 0 ? static_cast<double>(s.detected_true_hh) /
                                 static_cast<double>(s.true_hh)
                           : 1.0;
  s.precision = s.detections > 0
                    ? static_cast<double>(s.detected_true_hh) /
                          static_cast<double>(s.detections)
                    : 1.0;
  return s;
}

void Auditor::refresh_gauges() {
  const auto s = summary();
  tel_are_.set(s.are);
  tel_rel_bias_.set(s.mean_rel_bias);
  tel_recall_.set(s.recall);
  tel_precision_.set(s.precision);
  tel_true_hh_.set(static_cast<double>(s.true_hh));
}

void Auditor::reset() {
  flows_.clear();
  sampled_flows_.store(0, std::memory_order_relaxed);
  sampled_packets_.store(0, std::memory_order_relaxed);
  comparisons_.store(0, std::memory_order_relaxed);
  sum_abs_rel_err_.store(0, std::memory_order_relaxed);
  sum_rel_err_.store(0, std::memory_order_relaxed);
  undercount_.store(0, std::memory_order_relaxed);
  overcount_.store(0, std::memory_order_relaxed);
  for (auto& c : causes_) c.store(0, std::memory_order_relaxed);
  true_hh_.store(0, std::memory_order_relaxed);
  detected_true_hh_.store(0, std::memory_order_relaxed);
  detections_.store(0, std::memory_order_relaxed);
  tel_sampled_flows_.set(0);
  refresh_gauges();
}

}  // namespace instameasure::audit
