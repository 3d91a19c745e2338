// Event tracing & flight recorder (tentpole of the tracing PR).
//
// Where the metrics registry (metrics.h) answers "how much / how fast on
// average", the flight recorder answers "where did THIS detection's
// milliseconds go": every stage of the pipeline — regulator saturation,
// WSAF insert, heavy-hitter report, batch boundaries, delegation epoch
// seal / collector decode — can emit a compact 32-byte TraceEvent into a
// per-writer lock-free ring. A TraceCollector drains the rings into memory,
// a binary spool file, or Chrome trace-event JSON loadable in Perfetto /
// chrome://tracing (per-worker tracks, flow arrows linking
// packet -> L1 sat -> L2 sat -> wsaf -> detection for one flow).
//
// Fast-path contract: every instrumented component holds a TraceRecorder*
// (null by default) and each hook costs one predictable branch when
// tracing is off. With a recorder attached, a per-kind sampling mask is
// consulted with one relaxed load + bit test, so enabled-but-unsampled
// kinds still cost only a branch. Recorded events append single-writer
// into the track's SPSC ring (one release store); a full ring increments a
// drop counter instead of blocking — the data path never waits on the
// collector.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/metrics.h"

namespace instameasure::telemetry {

/// One event kind per pipeline stage. Keep the list <= 64 entries: the
/// sampling mask is a 64-bit bitmap indexed by kind.
enum class TraceEventKind : std::uint8_t {
  kPacket = 0,        ///< engine: packet entered process() (payload=wire_len)
  kL1Saturation,      ///< regulator: L1 vector saturated (payload=noise u)
  kL2Saturation,      ///< regulator: L2 saturated -> event (payload=est_pkts)
  kWsafInsert,        ///< wsaf: new entry created (payload=est_pkts)
  kWsafUpdate,        ///< wsaf: entry incremented (payload=total pkts)
  kWsafEvict,         ///< wsaf: second-chance/stalest replacement
  kWsafGcReclaim,     ///< wsaf: idle entry reclaimed during probing
  kWsafReject,        ///< wsaf: event dropped (eviction disabled)
  kDetection,         ///< engine: HH alarm (payload=trace-ns since first seen)
  kBatchBegin,        ///< runtime: worker burst begins (payload=batch size)
  kBatchEnd,          ///< runtime: worker burst fully processed
  kQueueStall,        ///< runtime: manager blocked on a full queue (aux=worker)
  kEpochSeal,         ///< delegation: epoch sketch flushed (payload=bytes)
  kCollectorDecode,   ///< delegation: sketch merged+decoded (payload=wall ns)
  kViewPublish,       ///< query: shard view published (payload=entry count)
  kQueryMerge,        ///< query: cross-shard merge served (payload=entries)
  kPerfCounters,      ///< perf: sampled HW counter delta (aux=stage|field<<8,
                      ///< see perf_counters.h encoding; payload=value)
  kAudit,             ///< audit: estimate vs shadow truth (payload=signed rel
                      ///< error; aux=code | pressure<<8, code 0 = within
                      ///< tolerance, 1..3 = cause+1, 4 = overcount; see
                      ///< audit/auditor.h)
  // 18 was the retired online-resize event and 19 the retired work-steal
  // event; the later kinds keep their numbers so existing IMTRC001 spools
  // still decode.
  kIoBurst = 20,      ///< netio: one PacketSource burst dispatched
                      ///< (payload=records in burst, aux=kernel drops seen
                      ///< so far, saturating at 2^32-1)
  kKindCount
};

inline constexpr unsigned kTraceKindCount =
    static_cast<unsigned>(TraceEventKind::kKindCount);

[[nodiscard]] constexpr std::uint64_t kind_bit(TraceEventKind k) noexcept {
  return std::uint64_t{1} << static_cast<unsigned>(k);
}

/// Mask with every kind enabled.
inline constexpr std::uint64_t kAllTraceKinds =
    (std::uint64_t{1} << kTraceKindCount) - 1;

[[nodiscard]] constexpr const char* to_string(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kPacket: return "packet";
    case TraceEventKind::kL1Saturation: return "l1_sat";
    case TraceEventKind::kL2Saturation: return "l2_sat";
    case TraceEventKind::kWsafInsert: return "wsaf_insert";
    case TraceEventKind::kWsafUpdate: return "wsaf_update";
    case TraceEventKind::kWsafEvict: return "wsaf_evict";
    case TraceEventKind::kWsafGcReclaim: return "wsaf_gc";
    case TraceEventKind::kWsafReject: return "wsaf_reject";
    case TraceEventKind::kDetection: return "detection";
    case TraceEventKind::kBatchBegin: return "batch";
    case TraceEventKind::kBatchEnd: return "batch";
    case TraceEventKind::kQueueStall: return "queue_stall";
    case TraceEventKind::kEpochSeal: return "epoch_seal";
    case TraceEventKind::kCollectorDecode: return "collector_decode";
    case TraceEventKind::kViewPublish: return "view_publish";
    case TraceEventKind::kQueryMerge: return "query_merge";
    case TraceEventKind::kPerfCounters: return "perf_counters";
    case TraceEventKind::kAudit: return "audit";
    case TraceEventKind::kIoBurst: return "io_burst";
    case TraceEventKind::kKindCount: break;
  }
  return "?";
}

/// Pipeline stage category (Chrome `cat` field; also groups the stage
/// attribution report).
[[nodiscard]] constexpr const char* category_of(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kPacket: return "engine";
    case TraceEventKind::kL1Saturation:
    case TraceEventKind::kL2Saturation: return "regulator";
    case TraceEventKind::kWsafInsert:
    case TraceEventKind::kWsafUpdate:
    case TraceEventKind::kWsafEvict:
    case TraceEventKind::kWsafGcReclaim:
    case TraceEventKind::kWsafReject: return "wsaf";
    case TraceEventKind::kDetection: return "detect";
    case TraceEventKind::kBatchBegin:
    case TraceEventKind::kBatchEnd:
    case TraceEventKind::kQueueStall: return "runtime";
    case TraceEventKind::kEpochSeal:
    case TraceEventKind::kCollectorDecode: return "delegation";
    case TraceEventKind::kViewPublish:
    case TraceEventKind::kQueryMerge: return "query";
    case TraceEventKind::kPerfCounters: return "perf";
    case TraceEventKind::kAudit: return "audit";
    case TraceEventKind::kIoBurst: return "io";
    case TraceEventKind::kKindCount: break;
  }
  return "?";
}

/// Compact POD record, 32 bytes so a 64 K-event ring is 2 MB. ts_ns is
/// steady-clock nanoseconds since the recorder's construction (one shared
/// epoch, so tracks are mutually comparable).
struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t flow_hash = 0;  ///< 0 when the event is not flow-scoped
  double payload = 0;           ///< kind-specific (see TraceEventKind docs)
  std::uint32_t aux = 0;        ///< kind-specific small extra
  TraceEventKind kind = TraceEventKind::kPacket;
  std::uint8_t track = 0;       ///< writer thread id (worker, or manager = N)
  std::uint16_t reserved = 0;
};
static_assert(sizeof(TraceEvent) == 32, "spool format relies on 32B events");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "rings and spool files memcpy events");

// --- Offline tooling -----------------------------------------------------

/// Write events as a binary spool: 8-byte magic ("IMTRC001") then raw
/// 32-byte records. Returns false on I/O failure.
bool write_spool(const std::string& path, std::span<const TraceEvent> events);

/// Read a spool written by write_spool() or TraceCollector::open_spool().
/// A truncated trailing record (crashed writer) is ignored — flight
/// recorders must be readable after a crash. Throws std::runtime_error on
/// open failure or bad magic.
[[nodiscard]] std::vector<TraceEvent> read_spool(const std::string& path);

/// Render Chrome trace-event JSON (the "JSON Array Format" superset with
/// {"traceEvents": [...]}) loadable in Perfetto / chrome://tracing.
/// Per-track thread lanes, B/E slices for batches, instant events for the
/// rest, and s/t/f flow arrows chaining packet -> l1_sat -> l2_sat ->
/// wsaf -> detection for every flow that reached a detection.
[[nodiscard]] std::string to_chrome_json(std::span<const TraceEvent> events);

// --- Recorder / collector ------------------------------------------------

struct TraceConfig {
  /// One ring per writer thread. MultiCoreEngine wants workers + 1 (the
  /// extra track is the manager's). Events emitted on an out-of-range
  /// track are counted dropped rather than racing another writer's ring.
  unsigned tracks = 1;
  /// Per-track ring capacity (events; rounded up to a power of two).
  /// 1<<16 events = 2 MB per track.
  std::size_t ring_capacity = 1 << 16;
  /// Per-kind sampling bitmap: bit k records kind k. 0 = trace nothing
  /// (hooks cost one branch + one relaxed load).
  std::uint64_t kind_mask = kAllTraceKinds;
};

/// Lock-free flight recorder. emit() is wait-free and single-writer per
/// track; one TraceCollector may drain concurrently.
class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceConfig& config = {});
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// One relaxed load + bit test: the hook-side gate.
  [[nodiscard]] bool wants(TraceEventKind kind) const noexcept {
    return (mask_.load(std::memory_order_relaxed) & kind_bit(kind)) != 0;
  }

  /// Record one event on `track` (the caller's writer-thread id). Masked
  /// kinds return after the one branch; full rings bump the track's drop
  /// counter instead of blocking.
  void emit(unsigned track, TraceEventKind kind, std::uint64_t flow_hash,
            double payload = 0.0, std::uint32_t aux = 0) noexcept;

  /// Swap the sampling bitmap at runtime (e.g. enable kPacket only around
  /// an incident). Takes effect on the next emit().
  void set_kind_mask(std::uint64_t mask) noexcept {
    mask_.store(mask, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t kind_mask() const noexcept {
    return mask_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] unsigned tracks() const noexcept;
  /// Events appended across all tracks (not counting drops).
  [[nodiscard]] std::uint64_t emitted() const noexcept;
  /// Events lost to full rings (+ out-of-range tracks), exact.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Steady-clock nanoseconds since this recorder was constructed — the
  /// timebase every TraceEvent.ts_ns uses.
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  friend class TraceCollector;
  struct Ring;  // SPSC ring + padded append/drop counters (trace.cpp)

  std::atomic<std::uint64_t> mask_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::uint64_t> oob_dropped_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// Drains a recorder's rings. Single consumer: create at most one
/// collector per recorder (the SPSC contract). Optionally streams every
/// drained event to a binary spool file as it goes.
class TraceCollector {
 public:
  explicit TraceCollector(TraceRecorder& recorder) : recorder_(&recorder) {}

  /// Start streaming drained events to `path` (spool header written now).
  /// Returns false if the file cannot be opened.
  bool open_spool(const std::string& path);

  /// Pop everything currently in every ring into events() (and the spool,
  /// if open). Returns the number of events drained. Safe to call while
  /// writers keep appending.
  std::size_t drain();

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorder_->dropped();
  }

  [[nodiscard]] std::string chrome_json() const {
    return to_chrome_json(events_);
  }
  /// Render events() to Chrome trace JSON at `path`. False on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  TraceRecorder* recorder_;
  std::vector<TraceEvent> events_;
  std::ofstream spool_;
};

}  // namespace instameasure::telemetry
