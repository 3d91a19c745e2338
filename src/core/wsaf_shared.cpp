#include "core/wsaf_shared.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace instameasure::core {

SharedWsaf::SharedWsaf(const SharedWsafConfig& config)
    : log2_stripes_(config.log2_stripes) {
  const unsigned floor_log2 =
      config.table.layout == WsafLayout::kBucketed ? 4U : 0U;
  if (config.log2_stripes > 16) {
    throw std::invalid_argument(
        "SharedWsafConfig: log2_stripes (" +
        std::to_string(config.log2_stripes) + ") exceeds the sane maximum "
        "(16 -> 65536 stripes)");
  }
  if (config.table.log2_entries < config.log2_stripes + floor_log2) {
    throw std::invalid_argument(
        "SharedWsafConfig: log2_entries (" +
        std::to_string(config.table.log2_entries) +
        ") must be >= log2_stripes (" + std::to_string(config.log2_stripes) +
        ") + layout floor (" + std::to_string(floor_log2) +
        ") so every stripe holds at least one probe window");
  }
  WsafConfig stripe_config = config.table;
  stripe_config.log2_entries = config.table.log2_entries - config.log2_stripes;
  // Flight-recorder rings are single-writer per track; a stripe is written
  // by every worker, so stripes never trace.
  stripe_config.trace = nullptr;
  const std::size_t n = std::size_t{1} << config.log2_stripes;
  stripes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    WsafConfig c = stripe_config;
    if (c.registry != nullptr) {
      c.labels.emplace_back("stripe", std::to_string(i));
    }
    stripes_.push_back(std::make_unique<Stripe>(c));
  }
}

WsafTable::Accumulated SharedWsaf::accumulate(const netio::FlowKey& key,
                                              std::uint64_t flow_hash,
                                              double est_packets,
                                              double est_bytes,
                                              std::uint64_t now_ns) {
  Stripe& s = *stripes_[stripe_of(flow_hash)];
  StripeGuard guard{s};
  return s.table.accumulate(key, flow_hash, est_packets, est_bytes, now_ns);
}

std::optional<WsafEntry> SharedWsaf::lookup(const netio::FlowKey& key,
                                            std::uint64_t flow_hash,
                                            std::uint64_t now_ns) {
  Stripe& s = *stripes_[stripe_of(flow_hash)];
  StripeGuard guard{s};
  return s.table.lookup(key, flow_hash, now_ns);
}

std::optional<WsafEntry> SharedWsaf::lookup(const netio::FlowKey& key,
                                            std::uint64_t flow_hash) {
  Stripe& s = *stripes_[stripe_of(flow_hash)];
  StripeGuard guard{s};
  return s.table.lookup(key, flow_hash);
}

WsafPressure SharedWsaf::pressure() {
  WsafPressure agg;
  std::size_t occupied = 0;
  std::size_t slots = 0;
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    const auto p = sp->table.pressure();
    occupied += sp->table.occupancy();
    slots += sp->table.slot_count();
    agg.eviction_pressure = std::max(agg.eviction_pressure,
                                     p.eviction_pressure);
    if (static_cast<int>(p.level) > static_cast<int>(agg.level)) {
      agg.level = p.level;
    }
  }
  agg.occupancy_ratio =
      slots == 0 ? 0.0
                 : static_cast<double>(occupied) / static_cast<double>(slots);
  return agg;
}

std::uint64_t SharedWsaf::latest_ns() {
  std::uint64_t latest = 0;
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    latest = std::max(latest, sp->table.latest_ns());
  }
  return latest;
}

void SharedWsaf::fill_view(WsafView& view, std::uint64_t now_ns) {
  view.clear();
  view.as_of_ns = now_ns;
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    sp->table.fill_view(scratch_, now_ns);
    view.entries.insert(view.entries.end(), scratch_.entries.begin(),
                        scratch_.entries.end());
  }
}

std::size_t SharedWsaf::slot_count() const noexcept {
  std::size_t slots = 0;
  for (const auto& sp : stripes_) slots += sp->table.slot_count();
  return slots;
}

std::vector<TopKItem> SharedWsaf::top_k(std::size_t k, TopKMetric metric) {
  std::vector<TopKItem> items;
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    for (const auto* e : sp->table.live_entries()) {
      items.push_back({e->key, e->packets, e->bytes});
    }
  }
  select_top_k(items, k, metric);
  return items;
}

WsafStats SharedWsaf::stats() {
  WsafStats agg;
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    const auto& s = sp->table.stats();
    agg.accumulates += s.accumulates;
    agg.inserts += s.inserts;
    agg.updates += s.updates;
    agg.evictions += s.evictions;
    agg.rejected += s.rejected;
    agg.probes += s.probes;
    agg.gc_reclaims += s.gc_reclaims;
    agg.gc_swept += s.gc_swept;
    agg.tag_collisions += s.tag_collisions;
  }
  return agg;
}

std::size_t SharedWsaf::occupancy() {
  std::size_t occupied = 0;
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    occupied += sp->table.occupancy();
  }
  return occupied;
}

std::size_t SharedWsaf::logical_memory_bytes() {
  std::size_t bytes = 0;
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    bytes += sp->table.logical_memory_bytes();
  }
  return bytes;
}

void SharedWsaf::reset() {
  for (auto& sp : stripes_) {
    StripeGuard guard{*sp};
    sp->table.reset();
  }
}

}  // namespace instameasure::core
