#include "core/multilayer_regulator.h"

namespace instameasure::core {

MultiLayerRegulator::MultiLayerRegulator(const MultiLayerConfig& config)
    : config_(config),
      levels_(config.levels()),
      noise_min_(config.noise_min),
      trace_(config.trace),
      trace_track_(config.trace_track) {
  if (config.registry != nullptr) {
    packets_ = config.registry->counter(
        "im_multilayer_packets_total",
        "Packets offered to the MultiLayerRegulator", config.labels);
    emissions_ = config.registry->counter(
        "im_multilayer_emissions_total",
        "Final-layer saturations (events forwarded to the WSAF)",
        config.labels);
  }
  layer_offsets_.reserve(config.layers);
  std::size_t offset = 0, layer_banks = 1;
  auto bank_config = config.bank_config();
  for (unsigned l = 0; l < config.layers; ++l) {
    layer_offsets_.push_back(offset);
    for (std::size_t b = 0; b < layer_banks; ++b) {
      bank_config.seed = config.seed + 0x9e37 * (offset + b + 1);
      banks_.emplace_back(bank_config);
    }
    offset += layer_banks;
    layer_banks *= levels_;
  }
  last_len_.assign(banks_.front().n_words(), 0);
}

std::optional<SaturationEvent> MultiLayerRegulator::offer(
    std::uint64_t flow_hash, std::uint16_t wire_len,
    const sketch::VvLayout& layout) noexcept {
  packets_.inc();
  last_len_[layout.word_index] = wire_len;

  std::size_t path = 0;
  double unit_product = 1.0;
  for (unsigned l = 0; l < config_.layers; ++l) {
    auto& bank = banks_[bank_index(l, path)];
    const auto noise = bank.encode(layout);
    if (!noise) return std::nullopt;
    unit_product *= bank.unit(*noise);
    path = path * levels_ + (*noise - noise_min_);
    // Intermediate layers map to kL1Saturation (aux = layer index); the
    // final layer's event is the kL2Saturation emitted below.
    if (trace_ && l + 1 < config_.layers) {
      trace_->emit(trace_track_, telemetry::TraceEventKind::kL1Saturation,
                   flow_hash, static_cast<double>(*noise), l);
    }
  }

  emissions_.inc();
  SaturationEvent event;
  event.est_packets = unit_product;
  event.est_bytes = unit_product * static_cast<double>(wire_len);
  emitted_estimate_ += unit_product;
  if (trace_) {
    trace_->emit(trace_track_, telemetry::TraceEventKind::kL2Saturation,
                 flow_hash, event.est_packets, config_.layers);
  }
  return event;
}

double MultiLayerRegulator::residual_packets(
    std::uint64_t flow_hash) const noexcept {
  const auto layout = banks_.front().layout_of(flow_hash);
  // Walk every reachable (layer, path): a partial vector at layer l via
  // noise path (n1..nl) holds events each worth prod(unit(ni)).
  double total = 0;
  std::vector<std::pair<std::size_t, double>> frontier{{0, 1.0}};
  for (unsigned l = 0; l < config_.layers; ++l) {
    std::vector<std::pair<std::size_t, double>> next;
    for (const auto& [path, unit_product] : frontier) {
      const auto& bank = banks_[bank_index(l, path)];
      total += unit_product * bank.residual_estimate(layout);
      if (l + 1 < config_.layers) {
        for (unsigned level = 0; level < levels_; ++level) {
          next.emplace_back(path * levels_ + level,
                            unit_product * bank.unit(noise_min_ + level));
        }
      }
    }
    frontier = std::move(next);
  }
  return total;
}

void MultiLayerRegulator::reset() noexcept {
  for (auto& bank : banks_) bank.reset();
  std::fill(last_len_.begin(), last_len_.end(), 0);
  packets_base_ = packets_.value();
  emissions_base_ = emissions_.value();
  emitted_estimate_ = 0;
}

}  // namespace instameasure::core
