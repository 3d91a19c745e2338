// Top-K extraction from the WSAF table.
//
// Because the WSAF keeps per-flow records for hours (unlike a sketch that
// must be flushed), top-K is a table scan — which is what lets the paper
// scale K to a million where dedicated HH algorithms stop at hundreds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/wsaf_table.h"

namespace instameasure::core {

struct TopKItem {
  netio::FlowKey key;
  double packets = 0;
  double bytes = 0;
};

enum class TopKMetric { kPackets, kBytes };

/// Strict "ranks above" order under `metric`: larger values first.
[[nodiscard]] inline auto top_k_order(TopKMetric metric) noexcept {
  return [metric](const TopKItem& a, const TopKItem& b) {
    return metric == TopKMetric::kPackets ? a.packets > b.packets
                                          : a.bytes > b.bytes;
  };
}

/// Order `items` descending under `metric` and keep the first k — the
/// selection every top-K answer (table scan, views) makes.
inline void select_top_k(std::vector<TopKItem>& items, std::size_t k,
                         TopKMetric metric) {
  if (items.size() > k) {
    std::partial_sort(items.begin(), items.begin() + static_cast<long>(k),
                      items.end(), top_k_order(metric));
    items.resize(k);
  } else {
    std::sort(items.begin(), items.end(), top_k_order(metric));
  }
}

/// The K largest live WSAF entries under `metric`, descending.
[[nodiscard]] inline std::vector<TopKItem> top_k(const WsafTable& table,
                                                 std::size_t k,
                                                 TopKMetric metric) {
  const auto entries = table.live_entries();
  std::vector<TopKItem> items;
  items.reserve(entries.size());
  for (const auto* e : entries) {
    items.push_back({e->key, e->packets, e->bytes});
  }
  select_top_k(items, k, metric);
  return items;
}

}  // namespace instameasure::core
