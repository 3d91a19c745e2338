#include "core/flow_regulator.h"

namespace instameasure::core {

FlowRegulator::FlowRegulator(const FlowRegulatorConfig& config)
    : config_(config),
      l1_(config.layer_config()),
      noise_min_(config.noise_min),
      last_len_(l1_.n_words(), 0),
      // Every entry starts tagged 0 and holding hash 0's layout, so the one
      // hash that can match a fresh entry finds the right layout in it.
      memo_(std::size_t{1} << kLayoutMemoBits,
            MemoEntry{0, l1_.layout_of(0)}),
      trace_(config.trace),
      trace_track_(config.trace_track) {
  if (config.registry != nullptr) {
    auto& reg = *config.registry;
    packets_ = reg.counter("im_regulator_packets_total",
                           "Packets offered to the FlowRegulator",
                           config.labels);
    l1_saturations_ =
        reg.counter("im_regulator_l1_saturations_total",
                    "Layer-1 virtual-vector saturations", config.labels);
    l2_saturations_ = reg.counter(
        "im_regulator_l2_saturations_total",
        "Layer-2 saturations (events forwarded to the WSAF)", config.labels);
  }
  auto bank_config = config.layer_config();
  const unsigned banks = config.banks();
  l2_.reserve(banks);
  for (unsigned b = 0; b < banks; ++b) {
    // Distinct per-bank draw streams. Geometry (word count) matches L1 and
    // every encode receives L1's layout, so the differing seed only
    // decorrelates the banks' random bit draws.
    bank_config.seed = config.seed + 0x9e37 * (b + 1);
    l2_.emplace_back(bank_config);
  }
}

std::optional<SaturationEvent> FlowRegulator::on_l1_saturation(
    std::uint64_t flow_hash, std::uint16_t wire_len,
    const sketch::VvLayout& layout, unsigned l1_noise) noexcept {
  l1_saturations_.inc();
  if (trace_) {
    trace_->emit(trace_track_, telemetry::TraceEventKind::kL1Saturation,
                 flow_hash, static_cast<double>(l1_noise));
  }

  auto& bank = l2_[l1_noise - noise_min_];
  const auto l2_noise = bank.encode(layout);
  if (!l2_noise) return std::nullopt;
  l2_saturations_.inc();

  SaturationEvent event;
  // unit(u): packets per L1 saturation; unit(w): L1 saturations per L2
  // saturation — the multiplicative decode of Algorithm 1, lines 13–15.
  event.est_packets = l1_.unit(l1_noise) * bank.unit(*l2_noise);
  event.est_bytes = event.est_packets * static_cast<double>(wire_len);
  emitted_packet_estimate_ += event.est_packets;
  if (trace_) {
    trace_->emit(trace_track_, telemetry::TraceEventKind::kL2Saturation,
                 flow_hash, event.est_packets, *l2_noise);
  }
  return event;
}

double FlowRegulator::residual_packets(std::uint64_t flow_hash) const noexcept {
  const auto layout = l1_.layout_of(flow_hash);
  double total = l1_.residual_estimate(layout);
  for (unsigned b = 0; b < l2_.size(); ++b) {
    // Bank b holds saturation events of level noise_min_ + b, each worth
    // unit(level) packets.
    const double events = l2_[b].residual_estimate(layout);
    total += events * l1_.unit(noise_min_ + b);
  }
  return total;
}

double FlowRegulator::residual_bytes(std::uint64_t flow_hash) const noexcept {
  const auto layout = l1_.layout_of(flow_hash);
  return residual_packets(flow_hash) *
         static_cast<double>(last_len_[layout.word_index]);
}

double FlowRegulator::mean_packets_per_event() const noexcept {
  const auto events = l2_saturations();
  return events ? emitted_packet_estimate_ / static_cast<double>(events)
                : 0.0;
}

void FlowRegulator::reset() noexcept {
  l1_.reset();
  for (auto& bank : l2_) bank.reset();
  std::fill(last_len_.begin(), last_len_.end(), 0);
  packets_base_ = packets_.value();
  l1_base_ = l1_saturations_.value();
  l2_base_ = l2_saturations_.value();
  emitted_packet_estimate_ = 0;
}

}  // namespace instameasure::core
