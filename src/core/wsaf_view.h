// WsafView: a compact, immutable snapshot of (a shard of) the WSAF.
//
// The paper's headline is *instant* detection — operators read the in-DRAM
// working set while packets are still flowing. A WsafView is the unit that
// makes that read/write decoupling concrete: the data plane periodically
// copies its live entries (flow key, packets, bytes, first/last seen) into
// a view and publishes it through a SnapshotChannel (snapshot_channel.h);
// every read-side consumer — QueryEngine, dashboards — operates on views
// and never touches the mutable table. Related designs make the same
// split: FlowRadar decouples encode from periodic decode, Elastic Sketch
// reads its heavy part out-of-band.
//
// A view is consistent by construction (it was built by the single writer
// between packets) and carries enough metadata to bound its staleness:
// `as_of_ns` is the trace-time high-water mark at build time and
// `publish_wall_ns` the steady-clock instant it became visible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/topk.h"
#include "netio/flow_key.h"

namespace instameasure::core {

/// One flow record inside a view. Mirrors the queryable fields of a
/// WsafEntry; trivially copyable so views memcpy-copy cleanly.
struct WsafViewEntry {
  netio::FlowKey key;
  std::uint64_t flow_hash = 0;
  double packets = 0;
  double bytes = 0;
  std::uint64_t first_seen_ns = 0;
  std::uint64_t last_update_ns = 0;

  [[nodiscard]] double value(TopKMetric metric) const noexcept {
    return metric == TopKMetric::kPackets ? packets : bytes;
  }
};

/// Versioned snapshot of one shard's live flows. Entry order is
/// unspecified (table order); sort on demand.
struct WsafView {
  std::uint64_t version = 0;          ///< publisher sequence, 1-based
  std::uint64_t as_of_ns = 0;         ///< trace time the view reflects
  std::uint64_t publish_wall_ns = 0;  ///< steady-clock publish instant
  unsigned shard = 0;
  std::vector<WsafViewEntry> entries;

  void clear() noexcept {
    version = 0;
    as_of_ns = 0;
    publish_wall_ns = 0;
    entries.clear();  // capacity retained: publishers recycle views
  }
};

namespace detail {
// Let the helpers below take ranges of views OR of view pointers (the
// QueryEngine merges pinned per-shard views without copying them).
[[nodiscard]] inline const WsafView& as_view(const WsafView& v) noexcept {
  return v;
}
[[nodiscard]] inline const WsafView& as_view(const WsafView* v) noexcept {
  return *v;
}
}  // namespace detail

/// The K largest entries across the given views under `metric`,
/// descending — the view-side twin of top_k(WsafTable&,...).
template <typename ViewRange>
[[nodiscard]] std::vector<TopKItem> view_top_k(const ViewRange& views,
                                               std::size_t k,
                                               TopKMetric metric) {
  std::vector<TopKItem> items;
  for (const auto& v : views) {
    const WsafView& view = detail::as_view(v);
    for (const auto& e : view.entries) {
      items.push_back({e.key, e.packets, e.bytes});
    }
  }
  select_top_k(items, k, metric);
  return items;
}

/// Every entry whose `metric` value is >= threshold, descending.
template <typename ViewRange>
[[nodiscard]] std::vector<WsafViewEntry> view_heavy_hitters(
    const ViewRange& views, double threshold, TopKMetric metric) {
  std::vector<WsafViewEntry> out;
  for (const auto& v : views) {
    const WsafView& view = detail::as_view(v);
    for (const auto& e : view.entries) {
      if (e.value(metric) >= threshold) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [metric](const WsafViewEntry& a, const WsafViewEntry& b) {
              return a.value(metric) > b.value(metric);
            });
  return out;
}

/// Find one flow's record. Shards partition flows, so the first match is
/// the only match.
template <typename ViewRange>
[[nodiscard]] std::optional<WsafViewEntry> view_find(
    const ViewRange& views, const netio::FlowKey& key) {
  for (const auto& v : views) {
    const WsafView& view = detail::as_view(v);
    for (const auto& e : view.entries) {
      if (e.key == key) return e;
    }
  }
  return std::nullopt;
}

}  // namespace instameasure::core
