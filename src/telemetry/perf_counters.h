// Hardware performance counters (tentpole of the perf-observability PR).
//
// InstaMeasure's central claim is a memory-behavior claim: the working set
// of active flows lives in DRAM and each packet costs a bounded number of
// misses. The telemetry registry and flight recorder only observe the
// software side; this layer adds the hardware view via perf_event_open(2):
// one PerfCounterGroup holds a leader-grouped set of counters — cycles,
// instructions, LLC-loads, LLC-load-misses, dTLB-load-misses,
// branch-misses — scheduled onto the PMU together so their ratios (IPC,
// miss rate) are taken over the same cycles. PerfScope reads the group
// around a region RAII-style; PerfStageProfiler samples the batched
// engine's three pipeline stages and derives the im_perf_* gauges.
//
// Graceful degradation is the contract: in a container, without
// CAP_PERFMON, with perf_event_paranoid locked down, or on a VM with no
// PMU, every open fails and the whole layer reports `unavailable` —
// available() is false, readings carry available=false per counter, the
// BENCH_*.json trajectory writes the literal string "unavailable", and the
// engine hot path pays exactly one relaxed load per chunk to find that
// out. Counters that individually fail to open (e.g. HW_CACHE events
// missing on some hypervisors) degrade per-counter, not whole-group.
//
// Threading: a group counts the thread that OPENED it (pid=0, cpu=-1).
// Construct the group/profiler on the thread whose work you measure; the
// multi-core runtime would need one profiler per worker (not wired yet —
// bench_trajectory and the tests drive single-threaded engines).
//
// Non-Linux hosts, where the syscall does not exist, get empty stubs with
// the identical API (kPerfEnabled is false there). On Linux the off switch
// is at runtime: an engine without a profiler (EngineConfig::perf ==
// nullptr) pays one pointer test per chunk.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace instameasure::telemetry {

/// The grouped counter set, in read order. Keep in sync with
/// kPerfCounterSpecs in perf_counters.cpp.
enum class PerfCounterId : unsigned {
  kCycles = 0,
  kInstructions,
  kLlcLoads,
  kLlcLoadMisses,
  kDtlbLoadMisses,
  kBranchMisses,
  kCount
};

inline constexpr unsigned kPerfCounterCount =
    static_cast<unsigned>(PerfCounterId::kCount);

[[nodiscard]] constexpr const char* to_string(PerfCounterId id) noexcept {
  switch (id) {
    case PerfCounterId::kCycles: return "cycles";
    case PerfCounterId::kInstructions: return "instructions";
    case PerfCounterId::kLlcLoads: return "llc_loads";
    case PerfCounterId::kLlcLoadMisses: return "llc_load_misses";
    case PerfCounterId::kDtlbLoadMisses: return "dtlb_load_misses";
    case PerfCounterId::kBranchMisses: return "branch_misses";
    case PerfCounterId::kCount: break;
  }
  return "?";
}

/// One counter's value. `available == false` means the counter could not
/// be opened (or the whole group could not) and `value` is meaningless —
/// exporters must emit "unavailable", never 0.
struct PerfValue {
  double value = 0.0;
  bool available = false;
};

/// A point-in-time (or delta) reading of the whole group. Values are
/// multiplex-scaled: when the kernel time-shares the PMU, each raw count
/// is extrapolated by time_enabled/time_running, so ratios stay honest.
struct PerfReading {
  std::array<PerfValue, kPerfCounterCount> values{};

  [[nodiscard]] const PerfValue& operator[](PerfCounterId id) const noexcept {
    return values[static_cast<unsigned>(id)];
  }
  [[nodiscard]] PerfValue& operator[](PerfCounterId id) noexcept {
    return values[static_cast<unsigned>(id)];
  }
  [[nodiscard]] bool any_available() const noexcept {
    for (const auto& v : values) {
      if (v.available) return true;
    }
    return false;
  }
  /// Member-wise difference (for end - begin around a region). A counter
  /// is available in the result only if it was available in both.
  [[nodiscard]] PerfReading minus(const PerfReading& begin) const noexcept {
    PerfReading d;
    for (unsigned i = 0; i < kPerfCounterCount; ++i) {
      d.values[i].available =
          values[i].available && begin.values[i].available;
      if (d.values[i].available) {
        d.values[i].value = values[i].value - begin.values[i].value;
      }
    }
    return d;
  }
  void add(const PerfReading& other) noexcept {
    for (unsigned i = 0; i < kPerfCounterCount; ++i) {
      if (other.values[i].available) {
        values[i].value += other.values[i].value;
        values[i].available = true;
      }
    }
  }
};

/// Pipeline stages the profiler attributes counters to — the three passes
/// of InstaMeasure::process_chunk. kWsafDrain's item unit is drained
/// saturation events (WSAF probes), not packets: its per-item rates read
/// as misses-per-probe, the number the cache-line-bucketed WSAF rebuild
/// must drive to ~1.
enum class PerfStage : unsigned {
  kHashLayout = 0,    ///< stage 1: hash + layout precompute (+ prefetch)
  kRegulatorUpdate,   ///< stage 2: sketch read-modify-write per packet
  kWsafDrain,         ///< stage 3: WSAF probe/drain of saturation events
  kStageCount
};

inline constexpr unsigned kPerfStageCount =
    static_cast<unsigned>(PerfStage::kStageCount);

[[nodiscard]] constexpr const char* to_string(PerfStage s) noexcept {
  switch (s) {
    case PerfStage::kHashLayout: return "hash_layout";
    case PerfStage::kRegulatorUpdate: return "regulator_update";
    case PerfStage::kWsafDrain: return "wsaf_drain";
    case PerfStage::kStageCount: break;
  }
  return "?";
}

// kPerfCounters trace-event encoding (shared by PerfStageProfiler emission
// and analysis/stage_latency aggregation): aux = stage | (field << 8),
// where field kPerfTraceItemsField carries payload = item count for the
// sampled chunk and field (counter id + 1) carries that counter's delta.
inline constexpr std::uint32_t kPerfTraceItemsField = 0;
[[nodiscard]] constexpr std::uint32_t perf_trace_aux(
    PerfStage stage, std::uint32_t field) noexcept {
  return static_cast<std::uint32_t>(stage) | (field << 8);
}

/// Per-stage accumulated deltas plus the item (packet/event) count they
/// cover. The profiler exposes these for offline reporting
/// (bench_trajectory serializes them into BENCH_*.json).
struct PerfStageTotals {
  PerfReading counters;
  std::uint64_t items = 0;    ///< packets (or WSAF events for kWsafDrain)
  std::uint64_t samples = 0;  ///< chunks sampled into this stage
};

}  // namespace instameasure::telemetry

#if defined(__linux__)

namespace instameasure::telemetry {

inline constexpr bool kPerfEnabled = true;

/// One perf_event_open(2) group over the calling thread. Opening never
/// throws: failure (no PMU, paranoid, missing capability) leaves
/// available() false with errno detail in error().
class PerfCounterGroup {
 public:
  PerfCounterGroup();
  ~PerfCounterGroup();
  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// True when the group leader opened; individual members may still be
  /// unavailable (check the PerfReading's per-counter flags).
  [[nodiscard]] bool available() const noexcept { return leader_fd_ >= 0; }
  [[nodiscard]] bool counter_available(PerfCounterId id) const noexcept {
    return fds_[static_cast<unsigned>(id)] >= 0;
  }
  /// Human-readable reason when available() is false ("perf_event_open:
  /// Permission denied", ...). Empty when available.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Read the whole group with one read(2) on the leader,
  /// multiplex-scaled. Unavailable group: every value unavailable.
  [[nodiscard]] PerfReading read() const noexcept;

 private:
  int leader_fd_ = -1;
  std::array<int, kPerfCounterCount> fds_;
  std::array<std::uint64_t, kPerfCounterCount> ids_{};  ///< PERF_FORMAT_ID
  std::string error_;
};

/// RAII region reader: captures the group at construction; delta() (or the
/// destructor, when an accumulator target is given) yields end - begin.
class PerfScope {
 public:
  explicit PerfScope(const PerfCounterGroup& group,
                     PerfReading* accumulate_into = nullptr) noexcept
      : group_(&group), into_(accumulate_into), begin_(group.read()) {}
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;
  ~PerfScope() {
    if (into_ != nullptr) into_->add(delta());
  }

  [[nodiscard]] PerfReading delta() const noexcept {
    return group_->read().minus(begin_);
  }

 private:
  const PerfCounterGroup* group_;
  PerfReading* into_;
  PerfReading begin_;
};

struct PerfProfilerConfig {
  /// Every 2^sample_shift-th chunk is bracketed with counter reads (4
  /// read(2) syscalls per sampled chunk). At the default 1/16 over
  /// 64-packet chunks that is one syscall per ~256 packets — <1% of the
  /// per-packet budget — while a full trajectory run still lands
  /// thousands of samples per stage.
  unsigned sample_shift = 4;
  /// When set, the derived im_perf_* gauges are exported here (with
  /// `labels` on every series, stage="..." on the per-stage variants).
  Registry* registry = nullptr;
  Labels labels{};
  /// When set, each sampled chunk emits kPerfCounters events on
  /// `trace_track` so trace_inspect shows misses-per-stage next to the
  /// latency attribution.
  TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;
};

/// Samples the batched pipeline's stages. The engine calls begin_chunk()
/// once per chunk (one relaxed load when perf is unavailable, one load +
/// counter test when it is); on a sampled chunk it brackets each stage
/// with stage_mark()/stage_commit() and closes with end_chunk().
class PerfStageProfiler {
 public:
  explicit PerfStageProfiler(const PerfProfilerConfig& config = {});

  [[nodiscard]] bool available() const noexcept { return available_; }
  [[nodiscard]] const PerfCounterGroup& group() const noexcept {
    return group_;
  }

  /// Hot-path gate: false (after one load) when perf is unavailable,
  /// otherwise true for every 2^sample_shift-th chunk.
  [[nodiscard]] bool begin_chunk() noexcept {
    if (!available_) return false;
    return (chunk_seq_++ & sample_mask_) == 0;
  }

  /// Capture the baseline reading before the first stage runs.
  void stage_mark() noexcept { prev_ = group_.read(); }

  /// Close one stage: read, accumulate (reading - prev) under `stage`
  /// with `items` work units, roll the baseline forward.
  void stage_commit(PerfStage stage, std::uint64_t items) noexcept;

  /// Close a sampled chunk of `packets`: refresh the derived gauges and
  /// emit the kPerfCounters flight-recorder events.
  void end_chunk(std::uint64_t packets);

  [[nodiscard]] const PerfStageTotals& stage_totals(
      PerfStage stage) const noexcept {
    return stages_[static_cast<unsigned>(stage)];
  }
  /// Sum of all stages' accumulated counters.
  [[nodiscard]] PerfReading totals() const noexcept;
  /// Packets covered by sampled chunks (the denominator of the aggregate
  /// per-packet gauges).
  [[nodiscard]] std::uint64_t sampled_packets() const noexcept {
    return sampled_packets_;
  }
  [[nodiscard]] std::uint64_t sampled_chunks() const noexcept {
    return sampled_chunks_;
  }

 private:
  PerfCounterGroup group_;
  bool available_ = false;
  std::uint64_t sample_mask_ = 0;
  std::uint64_t chunk_seq_ = 0;
  PerfReading prev_;
  std::array<PerfStageTotals, kPerfStageCount> stages_{};
  std::array<PerfReading, kPerfStageCount> chunk_delta_{};  ///< current chunk
  std::array<std::uint64_t, kPerfStageCount> chunk_items_{};
  std::uint64_t sampled_packets_ = 0;
  std::uint64_t sampled_chunks_ = 0;
  TraceRecorder* trace_ = nullptr;
  unsigned trace_track_ = 0;
  // Derived gauges: aggregate (no stage label) + one variant per stage.
  Gauge tel_llc_miss_per_packet_;
  Gauge tel_ipc_;
  Gauge tel_dtlb_miss_per_packet_;
  std::array<Gauge, kPerfStageCount> tel_stage_llc_;
  std::array<Gauge, kPerfStageCount> tel_stage_ipc_;
  std::array<Gauge, kPerfStageCount> tel_stage_dtlb_;
};

}  // namespace instameasure::telemetry

#else  // non-Linux: zero-cost stubs.

namespace instameasure::telemetry {

inline constexpr bool kPerfEnabled = false;

class PerfCounterGroup {
 public:
  PerfCounterGroup() = default;
  [[nodiscard]] bool available() const noexcept { return false; }
  [[nodiscard]] bool counter_available(PerfCounterId) const noexcept {
    return false;
  }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] PerfReading read() const noexcept { return {}; }

 private:
  std::string error_{"perf_event_open unavailable on this platform"};
};

class PerfScope {
 public:
  explicit PerfScope(const PerfCounterGroup&,
                     PerfReading* = nullptr) noexcept {}
  [[nodiscard]] PerfReading delta() const noexcept { return {}; }
};

struct PerfProfilerConfig {
  unsigned sample_shift = 4;
  Registry* registry = nullptr;
  Labels labels{};
  TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;
};

class PerfStageProfiler {
 public:
  explicit PerfStageProfiler(const PerfProfilerConfig& = {}) {}
  [[nodiscard]] bool available() const noexcept { return false; }
  [[nodiscard]] const PerfCounterGroup& group() const noexcept {
    return group_;
  }
  [[nodiscard]] bool begin_chunk() noexcept { return false; }
  void stage_mark() noexcept {}
  void stage_commit(PerfStage, std::uint64_t) noexcept {}
  void end_chunk(std::uint64_t) {}
  [[nodiscard]] const PerfStageTotals& stage_totals(
      PerfStage) const noexcept {
    return totals_;
  }
  [[nodiscard]] PerfReading totals() const noexcept { return {}; }
  [[nodiscard]] std::uint64_t sampled_packets() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t sampled_chunks() const noexcept { return 0; }

 private:
  PerfCounterGroup group_;
  PerfStageTotals totals_{};
};

}  // namespace instameasure::telemetry

#endif  // __linux__
