// WSAF: the in-DRAM Working Set of Active Flows (paper §III.B, Fig 2b).
//
// Two interchangeable storage layouts (WsafLayout) share one external
// contract — stats, pressure(), idle-timeout/latest_ns() semantics, views,
// snapshots, telemetry:
//
// kScalarProbe (default, the paper's layout): an open-addressing hash table
// over m = 2^n slots probed with the triangular quadratic sequence
// h(k,i) = h(k) + (i + i²)/2 mod m, which visits every slot as i ranges
// over [0, m) when m is a power of two — the property the paper uses to
// reach high load factors. Probing is bounded by a probe limit; when the
// window is full, a second-chance (clock) pass evicts the first
// non-referenced entry, falling back to the stalest one. Mice flows that
// leak through the FlowRegulator are thereby recycled out instead of
// crowding the table.
//
// kBucketed (cache-line-bucketed, fingerprint-tagged): slots are grouped 16
// per bucket with one 64-byte-aligned metadata line of 1-byte tags per
// bucket (core/wsaf_bucket.h). A lookup loads one metadata line, compares
// all 16 tags in one SSE2 shot, and dereferences only tag-matching slots —
// ~1 entry-line miss per lookup instead of one per probe step. Overflow
// probing is bucket-granular: the triangular sequence walks alternate
// buckets, and the probe_limit slot budget rounds up to whole buckets
// (window = ceil(probe_limit / 16) buckets). Eviction keeps the same
// policy *intent* (expired slots reclaimed first, then second-chance /
// stalest over the window) but necessarily picks victims from a
// bucket-granular window, so victim choice is not bit-identical to the
// scalar walk — the policy is explicitly versioned
// (wsaf_eviction_policy_version) and the cross-layout differential suite
// pins what IS identical.
//
// The paper's entry is 33 logical bytes: 32-bit flow-ID hash, 32-bit packet
// counter, 32-bit byte counter, 64-bit timestamp, 104-bit 5-tuple. The
// in-memory struct uses doubles for the counters (the regulator emits
// calibrated fractional units); logical_entry_bytes() preserves the paper's
// memory accounting for the benches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/wsaf_bucket.h"
#include "netio/flow_key.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace instameasure::core {

struct WsafView;  // core/wsaf_view.h — breaks the view->topk->table cycle

/// Physical storage layout of the table (see the header comment). Both
/// layouts implement the same external contract; only probe/eviction
/// granularity differs, which the eviction-policy version makes explicit.
enum class WsafLayout {
  kScalarProbe,  ///< the paper's slot-granular quadratic walk (default)
  kBucketed,     ///< cache-line buckets + SIMD fingerprint tags
};

[[nodiscard]] constexpr const char* to_string(WsafLayout l) noexcept {
  switch (l) {
    case WsafLayout::kScalarProbe: return "scalar-probe";
    case WsafLayout::kBucketed: return "bucketed";
  }
  return "?";
}

/// Version of the eviction/second-chance victim-selection behaviour. Two
/// tables with equal policy versions are replacement-for-replacement
/// comparable; across versions only the zero-eviction regime is exactly
/// equivalent (the differential suite's contract).
///   v1: slot-granular probe window (kScalarProbe).
///   v2: bucket-granular window, expired-first reclaim scan (kBucketed).
[[nodiscard]] constexpr unsigned wsaf_eviction_policy_version(
    WsafLayout l) noexcept {
  return l == WsafLayout::kBucketed ? 2u : 1u;
}

/// What to do when a new flow's probe window is full of live entries.
enum class EvictionPolicy {
  kSecondChance,  ///< the paper's clock scheme (default)
  kStalest,       ///< always evict the least-recently-updated entry
  kNone,          ///< reject the insertion (NetFlow-style table overflow)
};

struct WsafConfig {
  /// m = 2^20 in all paper experiments. Fixed for the table's lifetime:
  /// size it for the expected live set up front (docs/RESILIENCE.md
  /// "Sizing the WSAF").
  unsigned log2_entries = 20;
  /// Probe window in slots, in [1, entries()]; the constructor rejects
  /// anything else.
  unsigned probe_limit = 16;
  /// Storage layout. kBucketed needs log2_entries >= 4 (one full 16-slot
  /// bucket); the constructor rejects smaller tables.
  WsafLayout layout = WsafLayout::kScalarProbe;
  EvictionPolicy eviction = EvictionPolicy::kSecondChance;
  /// Entries idle longer than this (ns of trace time) count as empty during
  /// probing — the paper's inline garbage collection. 0 disables.
  std::uint64_t idle_timeout_ns = 0;
  std::uint64_t seed = 0x3aff;
  /// When set, table counters / occupancy / probe-length histogram are
  /// exported here (with `labels` on every series).
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  /// When set, insert/update/evict/gc/reject outcomes are recorded as
  /// flight-recorder events on `trace_track`.
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;

  [[nodiscard]] std::size_t entries() const noexcept {
    return std::size_t{1} << log2_entries;
  }
};

struct WsafEntry {
  netio::FlowKey key;               ///< full 5-tuple (104 bits logical)
  std::uint32_t flow_id = 0;        ///< 32-bit hash, fast mismatch filter
  double packets = 0;
  double bytes = 0;
  std::uint64_t first_seen_ns = 0;  ///< first accumulation (rate baseline)
  std::uint64_t last_update_ns = 0;
  bool occupied = false;
  bool referenced = false;          ///< second-chance bit

  /// Average packet rate over the entry's lifetime in the WSAF (pps of
  /// trace time). Rate-based heavy-hitter policies key off this.
  [[nodiscard]] double packet_rate() const noexcept {
    const auto span_ns = last_update_ns - first_seen_ns;
    return span_ns ? packets * 1e9 / static_cast<double>(span_ns) : 0.0;
  }
  /// Average byte rate (bytes/second of trace time).
  [[nodiscard]] double byte_rate() const noexcept {
    const auto span_ns = last_update_ns - first_seen_ns;
    return span_ns ? bytes * 1e9 / static_cast<double>(span_ns) : 0.0;
  }
};

struct WsafStats {
  std::uint64_t accumulates = 0;  ///< total accumulate() calls
  std::uint64_t inserts = 0;      ///< new entries created
  std::uint64_t updates = 0;      ///< existing entries incremented
  std::uint64_t evictions = 0;    ///< second-chance replacements
  /// Expired entries whose slot was actually overwritten by an insert (the
  /// inline GC of the probe path). Counted at the overwrite, never when an
  /// expired slot is merely noted and the probe later finds a key match.
  std::uint64_t gc_reclaims = 0;
  /// Expired entries cleared by the background sweep (sweep_expired() and
  /// the incremental per-accumulate sweep) — reclaims that release
  /// occupancy without a new flow moving in.
  std::uint64_t gc_swept = 0;
  /// Probe steps taken: slots touched in kScalarProbe, buckets examined in
  /// kBucketed (same unit change as the probe-length histogram — see
  /// docs/OBSERVABILITY.md).
  std::uint64_t probes = 0;
  std::uint64_t rejected = 0;     ///< all probed slots referenced & fresher (never with eviction fallback)
  /// kBucketed only: occupied slots whose tag matched but whose key did not
  /// — the false-positive rate of the 1-byte fingerprint filter (each one
  /// costs an extra entry-line dereference).
  std::uint64_t tag_collisions = 0;
};

/// How close the table is to silent accuracy collapse. kElevated means
/// headroom is shrinking; kSaturated means new elephants are already
/// recycling live entries (or being rejected) at a rate that will distort
/// estimates — the overload signal the runtime reports (and can shed on)
/// before the degradation becomes invisible.
enum class WsafPressureLevel : int { kNominal = 0, kElevated = 1, kSaturated = 2 };

[[nodiscard]] constexpr const char* to_string(WsafPressureLevel l) noexcept {
  switch (l) {
    case WsafPressureLevel::kNominal: return "nominal";
    case WsafPressureLevel::kElevated: return "elevated";
    case WsafPressureLevel::kSaturated: return "saturated";
  }
  return "?";
}

struct WsafPressure {
  double occupancy_ratio = 0.0;    ///< occupied / table slots
  /// Fraction of the most recent accumulate window that had to evict or
  /// reject (insertions displacing live flows): the eviction-pressure
  /// signal. 0 until one full window has elapsed.
  double eviction_pressure = 0.0;
  WsafPressureLevel level = WsafPressureLevel::kNominal;
};

class WsafTable {
 public:
  explicit WsafTable(const WsafConfig& config);

  struct Accumulated {
    double packets = 0;
    double bytes = 0;
    /// When the flow's live entry was created (== now_ns for fresh inserts).
    /// Heavy-hitter detection latency is measured from this instant.
    std::uint64_t first_seen_ns = 0;
  };

  /// Accumulate a saturation event for `key`. `flow_hash` must be
  /// key.hash(seed) — the caller (engine) computes it once per packet.
  /// Returns the entry's new totals (used by HH detection).
  Accumulated accumulate(const netio::FlowKey& key, std::uint64_t flow_hash,
                         double est_packets, double est_bytes,
                         std::uint64_t now_ns);

  /// Find the live entry for a flow as of `now_ns` (trace time). Entries
  /// idle past idle_timeout_ns are invisible — accumulate() would treat
  /// them as expired/GC-able, so returning them would serve dead state.
  [[nodiscard]] std::optional<WsafEntry> lookup(
      const netio::FlowKey& key, std::uint64_t flow_hash,
      std::uint64_t now_ns) const noexcept;

  /// lookup() as of the table's trace-time high-water mark (the latest
  /// now_ns any accumulate has seen) — the "current" read for callers
  /// without their own clock.
  [[nodiscard]] std::optional<WsafEntry> lookup(
      const netio::FlowKey& key, std::uint64_t flow_hash) const noexcept {
    return lookup(key, flow_hash, latest_ns_);
  }

  /// All live (occupied, not expired as of `now_ns`) entries, order
  /// unspecified. Top-K layers sort this.
  [[nodiscard]] std::vector<const WsafEntry*> live_entries(
      std::uint64_t now_ns) const;

  /// live_entries() as of the trace-time high-water mark.
  [[nodiscard]] std::vector<const WsafEntry*> live_entries() const {
    return live_entries(latest_ns_);
  }

  /// Copy the live entries (same expiry filter as live_entries/lookup)
  /// into `view`, stamping as_of_ns and the shard's flow count. The view's
  /// previous contents are recycled (capacity retained); version and
  /// publish_wall_ns are the publisher's business.
  void fill_view(WsafView& view, std::uint64_t now_ns) const;
  void fill_view(WsafView& view) const { fill_view(view, latest_ns_); }

  /// Clear up to `max_slots` expired entries (0 = scan the whole table),
  /// releasing their occupancy. Resumes from where the last sweep stopped.
  /// Returns the number of entries reclaimed. accumulate() runs a tiny
  /// increment of this per call when idle_timeout_ns is set, so occupancy
  /// and pressure() converge to the live count even when traffic that
  /// would probe the dead chains never arrives.
  std::size_t sweep_expired(std::uint64_t now_ns, std::size_t max_slots = 0);

  /// Hard ceiling on table size (2^40 slots ~ 36 TB logical); snapshots
  /// claiming more are rejected as implausible.
  static constexpr unsigned kMaxLog2Entries = 40;

  /// Physical slots, fixed at construction (2^log2_entries).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

  /// Trace-time high-water mark: the largest now_ns seen by accumulate()
  /// (or restored from a snapshot).
  [[nodiscard]] std::uint64_t latest_ns() const noexcept { return latest_ns_; }

  [[nodiscard]] std::size_t occupancy() const noexcept { return occupied_; }
  [[nodiscard]] double load_factor() const noexcept {
    return static_cast<double>(occupied_) /
           static_cast<double>(slots_.size());
  }
  [[nodiscard]] const WsafStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const WsafConfig& config() const noexcept { return config_; }
  /// This table's eviction-policy version (see wsaf_eviction_policy_version).
  [[nodiscard]] unsigned policy_version() const noexcept {
    return wsaf_eviction_policy_version(config_.layout);
  }

  /// Current overload signal: occupancy plus windowed eviction pressure
  /// (recomputed every kPressureWindow accumulates). Levels: saturated at
  /// >90% occupancy or >50% of recent events evicting/rejecting; elevated
  /// at >70% / >10%.
  [[nodiscard]] WsafPressure pressure() const noexcept {
    WsafPressure p;
    p.occupancy_ratio = load_factor();
    p.eviction_pressure = eviction_pressure_;
    if (p.occupancy_ratio > 0.9 || p.eviction_pressure > 0.5) {
      p.level = WsafPressureLevel::kSaturated;
    } else if (p.occupancy_ratio > 0.7 || p.eviction_pressure > 0.1) {
      p.level = WsafPressureLevel::kElevated;
    }
    return p;
  }

  /// Accumulate events per eviction-pressure window.
  static constexpr std::uint64_t kPressureWindow = 1024;

  /// Slots the incremental sweep visits per accumulate() when
  /// idle_timeout_ns is set: the whole table is revisited every
  /// entries()/2 accumulates, bounding how long an expired entry can
  /// inflate occupancy, at a cost of two predictable loads per event.
  static constexpr std::size_t kSweepSlotsPerAccumulate = 2;

  /// The paper's 33-byte logical entry size (memory accounting).
  [[nodiscard]] static constexpr std::size_t logical_entry_bytes() noexcept {
    return 33;
  }
  [[nodiscard]] std::size_t logical_memory_bytes() const noexcept {
    return slots_.size() * logical_entry_bytes();
  }

  void reset();

  /// Persist the live table to a binary snapshot. The paper keeps the WSAF
  /// resident for hours-to-days; snapshots make the record durable for
  /// long-term (offline) flow-behaviour analysis. Throws std::runtime_error
  /// on I/O failure.
  void save(const std::string& path) const;

  /// Restore a snapshot written by save(). The stored geometry (entry
  /// count, probe limit, seed) replaces the current one. Throws
  /// std::runtime_error on I/O failure or format mismatch, including a
  /// header whose reserved field is nonzero (written by the retired online
  /// resize mid-migration) or whose probe_limit exceeds the table's slots.
  [[nodiscard]] static WsafTable load(const std::string& path);

 private:
  friend struct WsafTableTestPeer;  // invariant fuzz inspects slots/metadata

  /// Triangular quadratic probing: the i-th offset is i(i+1)/2.
  [[nodiscard]] std::size_t slot_of(std::uint64_t flow_hash,
                                    unsigned i) const noexcept {
    return static_cast<std::size_t>(
        ((flow_hash & mask_) + (static_cast<std::uint64_t>(i) * (i + 1)) / 2) &
        mask_);
  }
  /// j-th bucket of the flow's overflow sequence: the same triangular walk,
  /// over buckets instead of slots.
  [[nodiscard]] std::size_t bucket_of(std::uint64_t flow_hash,
                                      unsigned j) const noexcept {
    return static_cast<std::size_t>(
        ((flow_hash & bucket_mask_) +
         (static_cast<std::uint64_t>(j) * (j + 1)) / 2) &
        bucket_mask_);
  }
  /// First slot of bucket b: slots are stored bucket-contiguously, so the
  /// bucketed layout reuses slots_ (views/snapshots iterate it unchanged).
  [[nodiscard]] static constexpr std::size_t slot_base(std::size_t b) noexcept {
    return b * WsafBucketMeta::kSlots;
  }

  Accumulated accumulate_bucketed(const netio::FlowKey& key,
                                  std::uint64_t flow_hash, double est_packets,
                                  double est_bytes, std::uint64_t now_ns);
  [[nodiscard]] std::optional<WsafEntry> lookup_bucketed(
      const netio::FlowKey& key, std::uint64_t flow_hash,
      std::uint64_t now_ns) const noexcept;
  [[nodiscard]] bool expired(const WsafEntry& e,
                             std::uint64_t now_ns) const noexcept {
    return config_.idle_timeout_ns != 0 &&
           e.last_update_ns + config_.idle_timeout_ns < now_ns;
  }

  void roll_pressure_window() noexcept;

  WsafConfig config_;
  std::uint64_t mask_;
  std::vector<WsafEntry> slots_;
  // kBucketed acceleration structure: one metadata line per 16 slots.
  // Empty (and bucket_window_ == 0) in the scalar layout.
  std::vector<WsafBucketMeta> buckets_;
  std::uint64_t bucket_mask_ = 0;
  unsigned bucket_window_ = 0;  ///< ceil(probe_limit/16), capped at #buckets
  std::size_t occupied_ = 0;
  std::uint64_t latest_ns_ = 0;   ///< trace-time high-water mark
  std::size_t sweep_cursor_ = 0;  ///< next slot the incremental sweep visits
  WsafStats stats_;
  // Eviction-pressure window: evict/reject fraction of the last
  // kPressureWindow accumulates, cached for pressure().
  std::uint64_t window_accumulates_ = 0;
  std::uint64_t window_stress_ = 0;
  double eviction_pressure_ = 0.0;
  // Telemetry mirrors of stats_ plus live occupancy and probe-length
  // distribution (single-writer cells; stats_ stays authoritative).
  telemetry::Counter tel_accumulates_;
  telemetry::Counter tel_inserts_;
  telemetry::Counter tel_updates_;
  telemetry::Counter tel_evictions_;
  telemetry::Counter tel_gc_reclaims_;
  telemetry::Counter tel_gc_swept_;
  telemetry::Counter tel_rejected_;
  telemetry::Counter tel_tag_collisions_;
  telemetry::Gauge tel_occupancy_;
  telemetry::Gauge tel_pressure_level_;
  telemetry::Gauge tel_eviction_pressure_;
  telemetry::Histogram tel_probe_length_;
  telemetry::TraceRecorder* trace_ = nullptr;
  unsigned trace_track_ = 0;
};

}  // namespace instameasure::core
