// SharedWsaf: one WSAF usable by every worker, striped for concurrency.
//
// The private-shard design (one WsafTable per MultiCoreEngine worker) is
// shared-nothing and fastest, but a skewed hash slice can saturate one
// shard while the others idle. SharedWsaf trades a little per-access cost
// for elasticity: the table is split into 2^log2_stripes stripes, each a
// full WsafTable guarded by its own cache-line-isolated spinlock, and the
// top bits of the flow hash pick the stripe. Any worker can then touch any
// flow — which is what makes work-stealing between workers sound (a stolen
// packet's flow state is wherever its hash says, not in a home shard).
// Every stripe's geometry is fixed at construction.
//
// Concurrency contract:
//   - accumulate()/lookup()/latest_ns()/pressure() are safe from any
//     thread (per-stripe spinlock; critical sections are a handful of
//     cache lines).
//   - fill_view()/top_k()/stats()/occupancy()/reset() lock
//     stripes one at a time and are safe from any single caller thread
//     (typically the manager); the result is per-stripe consistent.
//   - slot_count() takes no lock: stripe sizes never change.
//   - stripe() bypasses locking — quiescent phases only (setup, tests,
//     after workers joined).
//
// Stripes never attach a flight-recorder trace (rings are single-writer
// per track, but stripes are written by many workers); they do export the
// full im_wsaf_* telemetry series with a {stripe="N"} label.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/topk.h"
#include "core/wsaf_table.h"
#include "core/wsaf_view.h"

namespace instameasure::core {

struct SharedWsafConfig {
  /// Geometry of the WHOLE logical table; log2_entries is split evenly
  /// across stripes (each stripe gets log2_entries - log2_stripes). Seed,
  /// probe limit, eviction, idle timeout and telemetry registry/labels
  /// apply per stripe; trace is ignored (see above).
  WsafConfig table;
  /// log2 of the stripe count; 3 (8 stripes) comfortably feeds 8 workers.
  /// Must leave each stripe at least one bucket (>= 4 slots bucketed).
  unsigned log2_stripes = 3;
};

class SharedWsaf {
 public:
  /// Throws std::invalid_argument (message includes the offending values)
  /// when the stripe split leaves stripes smaller than the layout allows.
  explicit SharedWsaf(const SharedWsafConfig& config);

  SharedWsaf(const SharedWsaf&) = delete;
  SharedWsaf& operator=(const SharedWsaf&) = delete;

  WsafTable::Accumulated accumulate(const netio::FlowKey& key,
                                    std::uint64_t flow_hash,
                                    double est_packets, double est_bytes,
                                    std::uint64_t now_ns);
  [[nodiscard]] std::optional<WsafEntry> lookup(const netio::FlowKey& key,
                                                std::uint64_t flow_hash,
                                                std::uint64_t now_ns);
  /// lookup() as of the owning stripe's trace-time high-water mark (no
  /// cross-stripe latest_ns() scan on the query path).
  [[nodiscard]] std::optional<WsafEntry> lookup(const netio::FlowKey& key,
                                                std::uint64_t flow_hash);

  /// Aggregate overload signal: occupancy over the whole logical table,
  /// worst-stripe eviction pressure, worst-stripe level (one saturated
  /// stripe IS the problem even when its siblings idle).
  [[nodiscard]] WsafPressure pressure();
  [[nodiscard]] std::uint64_t latest_ns();

  /// Single-epoch union view of every stripe (per-stripe consistent; each
  /// flow appears exactly once). ViewPublisher-compatible.
  void fill_view(WsafView& view, std::uint64_t now_ns);
  /// Physical slots across all stripes (ViewPublisher cadence input).
  [[nodiscard]] std::size_t slot_count() const noexcept;

  [[nodiscard]] std::vector<TopKItem> top_k(std::size_t k, TopKMetric metric);

  /// Aggregated copies (summed over stripes).
  [[nodiscard]] WsafStats stats();
  [[nodiscard]] std::size_t occupancy();
  [[nodiscard]] std::size_t logical_memory_bytes();

  void reset();

  [[nodiscard]] std::size_t stripe_count() const noexcept {
    return stripes_.size();
  }
  /// Unlocked access — quiescent phases only.
  [[nodiscard]] WsafTable& stripe(std::size_t i) noexcept {
    return stripes_[i]->table;
  }
  [[nodiscard]] std::size_t stripe_of(std::uint64_t flow_hash) const noexcept {
    return log2_stripes_ == 0
               ? 0
               : static_cast<std::size_t>(flow_hash >> (64 - log2_stripes_));
  }

 private:
  // One lock + one table per cache-line-isolated stripe. Heap-allocated so
  // the vector can be built with non-movable members.
  struct alignas(64) Stripe {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    WsafTable table;
    explicit Stripe(const WsafConfig& config) : table(config) {}
  };

  class StripeGuard {
   public:
    explicit StripeGuard(Stripe& s) noexcept : stripe_(s) {
      while (stripe_.lock.test_and_set(std::memory_order_acquire)) {
#if defined(__cpp_lib_atomic_flag_test)
        while (stripe_.lock.test(std::memory_order_relaxed)) {
        }
#endif
      }
    }
    ~StripeGuard() { stripe_.lock.clear(std::memory_order_release); }
    StripeGuard(const StripeGuard&) = delete;
    StripeGuard& operator=(const StripeGuard&) = delete;

   private:
    Stripe& stripe_;
  };

  unsigned log2_stripes_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  WsafView scratch_;  ///< fill_view staging (manager thread only)
};

}  // namespace instameasure::core
