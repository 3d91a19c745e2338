#include "core/query_engine.h"

#include <algorithm>

#include "core/view_publisher.h"

namespace instameasure::core {

QueryEngine::QueryEngine(std::vector<const SnapshotChannel*> channels,
                         const QueryEngineConfig& config)
    : channels_(std::move(channels)), config_(config) {
  if (config.registry != nullptr) {
    auto& reg = *config.registry;
    tel_merges_ = reg.counter("im_query_merges_total",
                              "Cross-shard view merges served", config.labels);
    tel_snapshot_age_ = reg.gauge(
        "im_query_snapshot_age_ns",
        "Age of the oldest shard view at the last query", config.labels);
  }
}

std::vector<SnapshotChannel::ReadView> QueryEngine::pin_all() const {
  std::vector<SnapshotChannel::ReadView> pins;
  pins.reserve(channels_.size());
  for (const auto* channel : channels_) {
    auto pin = channel->read();
    if (pin) pins.push_back(std::move(pin));
  }
  return pins;
}

void QueryEngine::note_merge(std::size_t merged_entries) const {
  merges_.fetch_add(1, std::memory_order_relaxed);
  // Telemetry cells and trace tracks are single-writer; queries are not.
  // The spinlock serializes these few relaxed stores — the merge itself
  // (and the data plane) never touches it.
  while (stats_lock_.test_and_set(std::memory_order_acquire)) {
  }
  tel_merges_.inc();
  tel_snapshot_age_.set(static_cast<double>(snapshot_age_unlocked_()));
  if (config_.trace != nullptr) {
    config_.trace->emit(config_.trace_track,
                        telemetry::TraceEventKind::kQueryMerge,
                        /*flow_hash=*/0,
                        static_cast<double>(merged_entries), 0);
  }
  stats_lock_.clear(std::memory_order_release);
}

std::uint64_t QueryEngine::snapshot_age_unlocked_() const {
  const std::uint64_t now = ViewPublisher::steady_now_ns();
  std::uint64_t oldest = UINT64_MAX;
  for (const auto* channel : channels_) {
    const auto pin = channel->read();
    if (!pin) return UINT64_MAX;  // a shard never published
    const std::uint64_t published = pin->publish_wall_ns;
    const std::uint64_t age = published < now ? now - published : 0;
    oldest = oldest == UINT64_MAX ? age : std::max(oldest, age);
  }
  return channels_.empty() ? UINT64_MAX : oldest;
}

std::vector<TopKItem> QueryEngine::top_k(std::size_t k,
                                         TopKMetric metric) const {
  const auto pins = pin_all();
  std::vector<const WsafView*> views;
  views.reserve(pins.size());
  std::size_t total = 0;
  for (const auto& pin : pins) {
    views.push_back(&*pin);
    total += pin->entries.size();
  }
  auto out = view_top_k(views, k, metric);
  note_merge(total);
  return out;
}

std::optional<WsafViewEntry> QueryEngine::flow(
    const netio::FlowKey& key) const {
  const auto pins = pin_all();
  std::vector<const WsafView*> views;
  views.reserve(pins.size());
  for (const auto& pin : pins) views.push_back(&*pin);
  auto out = view_find(views, key);
  note_merge(out ? 1 : 0);
  return out;
}

std::vector<WsafViewEntry> QueryEngine::heavy_hitters(
    double threshold, TopKMetric metric) const {
  const auto pins = pin_all();
  std::vector<const WsafView*> views;
  views.reserve(pins.size());
  for (const auto& pin : pins) views.push_back(&*pin);
  auto out = view_heavy_hitters(views, threshold, metric);
  note_merge(out.size());
  return out;
}

std::size_t QueryEngine::active_flow_count() const {
  const auto pins = pin_all();
  std::size_t total = 0;
  for (const auto& pin : pins) total += pin->entries.size();
  note_merge(total);
  return total;
}

audit::AuditSummary QueryEngine::audit() const {
  audit::AuditSummary merged;
  bool first = true;
  for (const auto* auditor : config_.auditors) {
    if (auditor == nullptr) continue;
    merged = first ? auditor->summary() : audit::merge(merged, auditor->summary());
    first = false;
  }
  if (first) {
    // No auditors: an empty audit has perfect (vacuous) recall/precision,
    // matching what summary() reports before any truth crossing.
    merged.recall = 1.0;
    merged.precision = 1.0;
  }
  return merged;
}

std::uint64_t QueryEngine::snapshot_age_ns() const {
  return snapshot_age_unlocked_();
}

std::vector<std::uint64_t> QueryEngine::versions() const {
  std::vector<std::uint64_t> out;
  out.reserve(channels_.size());
  for (const auto* channel : channels_) out.push_back(channel->version());
  return out;
}

}  // namespace instameasure::core
