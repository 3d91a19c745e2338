// QueryEngine: the read side of the live query plane.
//
// The paper's operational promise is that the WSAF is *queryable while it
// is being written*: an operator asks "top talkers right now?" without
// pausing the 10 GbE feed. The QueryEngine delivers that over one
// SnapshotChannel per shard: every query pins the latest committed view of
// each shard (one atomic load + refcount apiece — writers never wait),
// merges them, and answers. Shards partition flows by hash, so the merge
// is a concatenation; no flow appears in two shards.
//
// Consistency model (docs/QUERYING.md): each per-shard view is internally
// consistent — it is an atomic copy the shard's writer made between
// packets. Across shards the views are *individually* fresh but not
// mutually synchronized: shard A's view may be newer than shard B's by up
// to one publish interval. Queries therefore see a slightly time-skewed
// but never torn picture; staleness_ns() bounds the skew.
//
// Thread-safety: any number of threads may query concurrently (the
// channels are multi-reader). The engine's own bookkeeping (merge counter,
// staleness gauge, trace emit) is serialized by a tiny spinlock because
// telemetry cells and trace tracks are single-writer; it guards a handful
// of relaxed stores, never the merge itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "audit/auditor.h"
#include "core/snapshot_channel.h"
#include "core/topk.h"
#include "core/wsaf_view.h"
#include "netio/flow_key.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace instameasure::core {

struct QueryEngineConfig {
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;
  /// Per-shard accuracy auditors to merge in audit() — typically one per
  /// worker engine (MultiCoreEngine wires them up when auditing is on).
  /// Auditor::summary() is any-thread safe, so queries may run while the
  /// shards ingest.
  std::vector<const audit::Auditor*> auditors{};
};

class QueryEngine {
 public:
  explicit QueryEngine(std::vector<const SnapshotChannel*> channels,
                       const QueryEngineConfig& config = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The K largest flows across every shard under `metric`, descending.
  [[nodiscard]] std::vector<TopKItem> top_k(std::size_t k,
                                            TopKMetric metric) const;

  /// One flow's record, if any shard's view holds it.
  [[nodiscard]] std::optional<WsafViewEntry> flow(
      const netio::FlowKey& key) const;

  /// Every flow at or above `threshold` under `metric`, descending.
  [[nodiscard]] std::vector<WsafViewEntry> heavy_hitters(
      double threshold, TopKMetric metric) const;

  /// Live flows across all shards (sum of view entry counts).
  [[nodiscard]] std::size_t active_flow_count() const;

  /// Live accuracy snapshot: the attached shard auditors' summaries merged
  /// (counts summed, ARE/recall recomputed from the raw sums — never an
  /// average of averages). All-zero / recall=precision=1 when no auditors
  /// are attached. Any thread, any time.
  [[nodiscard]] audit::AuditSummary audit() const;

  /// Number of shard auditors attached.
  [[nodiscard]] std::size_t auditors() const noexcept {
    return config_.auditors.size();
  }

  /// Steady-clock nanoseconds since the OLDEST shard's view was published
  /// — the upper bound on how stale any part of an answer can be. Returns
  /// UINT64_MAX while any shard has never published.
  [[nodiscard]] std::uint64_t snapshot_age_ns() const;

  /// Per-shard view versions (0 = shard never published). Two identical
  /// version vectors bracket a query => the answer was fully stable.
  [[nodiscard]] std::vector<std::uint64_t> versions() const;

  [[nodiscard]] std::size_t shards() const noexcept {
    return channels_.size();
  }
  /// Cross-shard merges served (top_k / flow / heavy_hitters /
  /// active_flow_count calls that pinned views).
  [[nodiscard]] std::uint64_t merges() const noexcept {
    return merges_.load(std::memory_order_relaxed);
  }

 private:
  /// Pin the latest view of every shard. Shards that never published
  /// contribute nothing (their ReadView is empty).
  [[nodiscard]] std::vector<SnapshotChannel::ReadView> pin_all() const;
  void note_merge(std::size_t merged_entries) const;
  [[nodiscard]] std::uint64_t snapshot_age_unlocked_() const;

  std::vector<const SnapshotChannel*> channels_;
  QueryEngineConfig config_;
  mutable std::atomic<std::uint64_t> merges_{0};
  mutable std::atomic_flag stats_lock_ = ATOMIC_FLAG_INIT;
  mutable telemetry::Counter tel_merges_;
  mutable telemetry::Gauge tel_snapshot_age_;
};

}  // namespace instameasure::core
