// Multi-core InstaMeasure (paper §IV.C, Fig 5).
//
// One manager dispatches packets to N worker queues; each worker owns an
// independent InstaMeasure engine (FlowRegulator + WSAF shard) so there is
// no shared mutable state on the fast path. Dispatch uses
// popcount(source IP) mod N — the paper's load-spreading function — which
// also guarantees all packets of a flow reach the same worker (popcount is
// a pure function of the key), so shards never need cross-worker merging
// for per-flow counts.
//
// Overload model (resilience tentpole): what the manager does when a
// worker queue is full is a policy, not an accident. kBlock spins (lossless
// replay, today's behavior); kDropTail waits a bounded number of retries
// then drops with exact accounting; kShed climbs a graceful-degradation
// ladder — sample 1/2, 1/4, ... of packets and compensate the admitted
// ones with a matching weight so estimates stay unbiased while queue
// pressure falls. In every mode the invariant
//   offered == processed + dropped + shed
// holds exactly. An optional watchdog thread heartbeats the workers and
// reports stalled/lagging ones (and WSAF overload pressure) through
// telemetry.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/instameasure.h"
#include "core/query_engine.h"
#include "core/wsaf_shared.h"
#include "netio/source.h"
#include "runtime/spsc_queue.h"
#include "telemetry/metrics.h"
#include "trace/trace.h"

namespace instameasure::runtime {

/// How the manager picks a worker queue for a packet. Both are pure
/// functions of the flow key, so a flow always lands on one worker.
enum class DispatchPolicy {
  kPopcount,  ///< popcount(src IP) mod N — the paper's Fig 5 selector
  kFlowHash,  ///< full key hash mod N — better balanced (see ablation)
};

/// What the manager does when a worker queue stays full.
enum class OverloadPolicy {
  kBlock,     ///< spin until space frees (lossless; replay default)
  kDropTail,  ///< bounded wait, then drop the packet (exact drop counters)
  kShed,      ///< graceful-degradation ladder: sample + weight-compensate
};

[[nodiscard]] constexpr const char* to_string(OverloadPolicy p) noexcept {
  switch (p) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kDropTail: return "drop-tail";
    case OverloadPolicy::kShed: return "shed";
  }
  return "?";
}

struct OverloadConfig {
  OverloadPolicy policy = OverloadPolicy::kBlock;
  /// kDropTail/kShed: failed push attempts (a yield apart) tolerated per
  /// packet before the packet is dropped/shed.
  unsigned full_queue_retries = 64;
  /// kShed: full-queue events at the current rung before climbing one
  /// (halving the admission rate again).
  unsigned escalate_after_stalls = 64;
  /// kShed: ladder ceiling; admission rate floor is 1/2^max_shed_level.
  unsigned max_shed_level = 6;
  /// kShed: consecutive uncontended dispatches to a worker before its
  /// ladder steps back down one rung (pressure cleared).
  std::uint64_t decay_after_clean = 8192;
  /// kShed: a dispatch counts as uncontended when it pushed on the first
  /// try and the queue was below this fraction of capacity.
  double clean_depth_fraction = 0.25;
  /// kShed: when the watchdog sees a worker's WSAF at saturated pressure,
  /// hold that ladder at >= 1 (shed before accuracy silently collapses).
  bool shed_on_wsaf_pressure = false;
  /// Watchdog heartbeat period; 0 disables the watchdog thread.
  double watchdog_interval_ms = 0.0;
  /// Heartbeat intervals a worker may make zero progress with a non-empty
  /// queue before it is reported stalled.
  unsigned watchdog_stall_intervals = 4;
};

struct MultiCoreConfig {
  unsigned workers = 4;
  /// SPSC ring size; must be a power of two >= 2 (validated, not rounded).
  std::size_t queue_capacity = 1 << 14;
  DispatchPolicy dispatch = DispatchPolicy::kPopcount;
  OverloadConfig overload{};
  /// Workers drain their queue in bursts either through the engine's
  /// batched prefetch pipeline (default) or as scalar process() calls.
  /// Semantically invisible — per-shard state is bit-identical either way
  /// (see tests/test_batch_equivalence.cpp); the scalar path remains as the
  /// A/B baseline for the Fig 9a throughput reproduction.
  bool batched = true;
  /// Live query plane: every worker publishes WsafViews of its shard at
  /// the `query_plane` cadence (shard/registry/trace wiring is filled in
  /// per worker) and queries() answers over them while run() is in flight.
  /// The default auto cadence keeps the cost under 2% of throughput
  /// (scripts/check_query_overhead.sh guards this); set false to remove
  /// the publish tick entirely.
  bool enable_query_plane = true;
  core::ViewPublishConfig query_plane{};
  /// Per-worker engine template; memory is per worker (×N total). Setting
  /// engine.enable_audit turns on the live accuracy-audit plane in every
  /// shard: the audit sample seed is NOT decorrelated (unlike the engine
  /// seed below), so all workers audit the same slice of flow space, the
  /// per-shard auditors are attached to queries()->audit(), and each
  /// worker runs its exactness sweep as it drains at end of run.
  core::EngineConfig engine{};
  /// Shared-table mode: instead of one private WSAF shard per worker, the
  /// runtime owns a single striped SharedWsaf (geometry from engine.wsaf,
  /// split over 2^shared_log2_stripes spinlocked stripes) that every worker
  /// engine accumulates into. Flow state then lives wherever the flow hash
  /// says — not in a home shard — which makes manager-side work-stealing
  /// sound: when a worker's queue stays full, the packet is diverted to the
  /// least-loaded other queue instead of being dropped/shed. Costs: worker
  /// engines share one seed (the table is keyed by engine-computed hashes),
  /// per-shard views collapse to one shared-channel publisher (ticked by
  /// the manager), and the audit plane is unsupported (validated).
  bool shared_table = false;
  /// Stripe count for shared_table mode (2^k stripes; 3 -> 8 stripes).
  unsigned shared_log2_stripes = 3;
  /// Registry every worker engine and the runtime export into (each series
  /// labeled worker="N"). When null the engine owns a private registry,
  /// reachable via registry(), so metrics are always available.
  telemetry::Registry* registry = nullptr;
  /// Flight recorder shared by every worker. Track w is worker w's ring and
  /// track `workers` is the manager's, so the recorder must be sized with
  /// tracks >= workers + 1 (validated at construction).
  telemetry::TraceRecorder* trace = nullptr;
};

/// Per-run statistics, counted by the run itself: the manager and each
/// worker keep plain counters for this run only, and the registry's
/// cumulative im_runtime_* / im_io_* series mirror them live, so the
/// numbers are the same with telemetry compiled in or out.
/// Accounting invariant (all policies, any fault schedule):
///   offered == processed + dropped + shed, exactly.
struct RunStats {
  double wall_seconds = 0;
  double mpps = 0;                       ///< processed packets / wall time
  std::uint64_t packets = 0;             ///< offered = records delivered
  std::uint64_t processed = 0;           ///< reached a worker engine
  std::uint64_t dropped = 0;             ///< kDropTail bounded-wait losses
  std::uint64_t shed = 0;                ///< kShed ladder losses (compensated)
  std::uint64_t producer_stalls = 0;     ///< full-queue backoffs
  std::uint64_t steals = 0;              ///< packets diverted to another queue
  unsigned shed_level_peak = 0;          ///< deepest ladder rung reached
  std::uint64_t watchdog_stall_reports = 0;
  std::uint64_t views_published = 0;     ///< query-plane snapshots committed
  std::uint64_t view_publishes_skipped = 0;  ///< all spare buffers pinned
  int wsaf_pressure_peak = 0;            ///< worst shard WsafPressureLevel seen
  std::vector<std::uint64_t> per_worker_packets;   ///< processed per worker
  std::vector<std::uint64_t> per_worker_dropped;   ///< dropped + shed per worker
  std::vector<std::uint64_t> per_worker_steals;    ///< steals FROM this home queue
  std::vector<std::size_t> max_queue_depth;
  /// Queue depth sampled at every source pull, averaged: the backlog the
  /// worker carried while traffic arrived.
  std::vector<double> mean_queue_depth;
  std::vector<double> worker_busy_fraction;  ///< busy polls / total polls
  // The capture plane's accounting. `packets` above is the records the
  // source DELIVERED; a port may have seen more — io_kernel_dropped (ring
  // overruns) and io_skipped (undecodable frames) make that explicit.
  std::string source;                    ///< "replay" | "pcap" | "afpacket"
  std::uint64_t io_kernel_dropped = 0;   ///< lost before delivery (ring full)
  std::uint64_t io_skipped = 0;          ///< frames seen but not decodable
  std::uint64_t io_fragments = 0;        ///< port-0 fragment continuations
  std::uint64_t io_truncated = 0;        ///< clamped-total-length records
  std::uint64_t io_wait_cycles = 0;      ///< empty source polls
};

/// Bounds for a run_source call. Zero means unlimited; a live capture
/// needs at least one bound or an external stop.
struct SourceRunConfig {
  std::uint64_t max_packets = 0;  ///< stop after this many delivered records
  double max_seconds = 0;         ///< wall-clock budget for the whole run
  /// Stop once the source reports exhausted() (file/replay end). Turn off
  /// to keep polling a live port for the full max_seconds.
  bool stop_on_exhausted = true;
};

class MultiCoreEngine {
 public:
  /// Throws std::invalid_argument (message names the offending value) when
  /// the config is unusable: zero workers, a queue capacity that is not a
  /// power of two >= 2, a flight recorder with fewer than workers + 1
  /// tracks, or a shared_table request the mode cannot honor (audit plane
  /// enabled, or a stripe split the WSAF geometry cannot support).
  explicit MultiCoreEngine(const MultiCoreConfig& config);
  ~MultiCoreEngine();

  MultiCoreEngine(const MultiCoreEngine&) = delete;
  MultiCoreEngine& operator=(const MultiCoreEngine&) = delete;

  /// Replay a preloaded trace at maximum speed (throughput mode, Fig 9a):
  /// shorthand for run_source over an unpaced netio::ReplaySource. For
  /// deployment mode (Fig 12: queue depth under real-time arrival) build a
  /// ReplaySource with Config::pace_pps and call run_source.
  RunStats run(const trace::Trace& trace) {
    netio::ReplaySource source{
        std::span<const netio::PacketRecord>{trace.packets}};
    return run_source(source);
  }

  /// The one ingest path: pull bursts from any netio::PacketSource (live
  /// AF_PACKET ring, streaming pcap, replay) and dispatch them to the
  /// workers with NO intermediate PacketVector — records are copied once,
  /// into the worker rings. Every overload policy, work-stealing and the
  /// watchdog apply to every source. Blocks until the configured bound is
  /// hit or the source is exhausted and every admitted packet is
  /// processed; RunStats carries the io_* capture accounting beside the
  /// usual fields, with
  ///   offered(delivered) == processed + dropped + shed
  /// exact, and kernel drops/skips reported separately. An exception from
  /// the source (a corrupt pcap record) is rethrown after every thread of
  /// the run has been stopped and joined.
  RunStats run_source(netio::PacketSource& source,
                      const SourceRunConfig& config);
  RunStats run_source(netio::PacketSource& source) {
    return run_source(source, SourceRunConfig{});
  }

  /// Worker index a key routes to, per the configured dispatch policy.
  [[nodiscard]] unsigned worker_of(const netio::FlowKey& key) const noexcept {
    const auto n = static_cast<unsigned>(engines_.size());
    switch (config_.dispatch) {
      case DispatchPolicy::kFlowHash:
        return static_cast<unsigned>(key.hash(0x41u) % n);
      case DispatchPolicy::kPopcount:
        break;
    }
    return static_cast<unsigned>(std::popcount(key.src_ip)) % n;
  }

  /// Query routed to the owning shard (valid after run()).
  [[nodiscard]] core::InstaMeasure::FlowEstimate query(
      const netio::FlowKey& key) const {
    return engines_[worker_of(key)]->query(key);
  }

  /// Merged top-K across shards (computed once over the shared table in
  /// shared_table mode — every engine would return the same global answer).
  [[nodiscard]] std::vector<core::TopKItem> top_k_packets(std::size_t k) const;
  [[nodiscard]] std::vector<core::TopKItem> top_k_bytes(std::size_t k) const;

  /// The shared striped table, or null outside shared_table mode.
  [[nodiscard]] core::SharedWsaf* shared_table() const noexcept {
    return shared_.get();
  }

  /// The live query plane: answers top-K / per-flow / heavy-hitter queries
  /// over the workers' published views from ANY thread, including while
  /// run() is processing packets (top_k_packets()/query() above touch the
  /// tables directly and are only safe on a stopped engine). Null when
  /// enable_query_plane is false.
  [[nodiscard]] const core::QueryEngine* queries() const noexcept {
    return query_engine_.get();
  }

  [[nodiscard]] const core::InstaMeasure& engine(unsigned worker) const {
    return *engines_[worker];
  }
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(engines_.size());
  }

  /// The registry this engine exports into (the configured one, or the
  /// internally-owned fallback). Scrape it live during run() — every
  /// worker's counters update wait-free as packets flow.
  [[nodiscard]] telemetry::Registry& registry() const noexcept {
    return *registry_;
  }

 private:
  /// What travels on a worker queue: a copy of the record (a source reuses
  /// its burst buffer on the next pull) plus the shed-compensation weight
  /// (1 except under kShed pressure; an admitted packet with weight w
  /// stands for w offered packets).
  struct QueueItem {
    netio::PacketRecord rec;
    std::uint32_t weight = 1;
  };

  MultiCoreConfig config_;
  std::vector<std::unique_ptr<core::InstaMeasure>> engines_;
  // Shared-table mode: the one striped WSAF all workers write, plus the
  // manager-ticked publisher feeding the query plane's single channel.
  std::unique_ptr<core::SharedWsaf> shared_;
  std::unique_ptr<core::ViewPublisher> shared_publisher_;
  std::unique_ptr<core::QueryEngine> query_engine_;
  std::unique_ptr<telemetry::Registry> owned_registry_;
  telemetry::Registry* registry_ = nullptr;
  // Runtime-level series, one handle per worker (single-writer cells).
  std::vector<telemetry::Counter> tel_worker_packets_;
  std::vector<telemetry::Counter> tel_busy_polls_;
  std::vector<telemetry::Counter> tel_idle_polls_;
  std::vector<telemetry::Counter> tel_dropped_;
  std::vector<telemetry::Counter> tel_shed_;
  std::vector<telemetry::Counter> tel_worker_stalled_;
  std::vector<telemetry::Counter> tel_steals_;  ///< steals from home queue w
  std::vector<telemetry::Gauge> tel_queue_depth_max_;
  std::vector<telemetry::Gauge> tel_shed_level_;
  telemetry::Counter tel_producer_stalls_;
  telemetry::Counter tel_runs_;
  telemetry::Gauge tel_mpps_;
  telemetry::Gauge tel_wall_seconds_;
  telemetry::Gauge tel_wsaf_pressure_;
  // Capture-plane series, all manager-written.
  telemetry::Counter tel_io_received_;
  telemetry::Counter tel_io_kernel_dropped_;
  telemetry::Counter tel_io_skipped_;
  telemetry::Counter tel_io_fragments_;
  telemetry::Counter tel_io_truncated_;
  telemetry::Counter tel_io_bursts_;
  telemetry::Counter tel_io_wait_cycles_;
};

}  // namespace instameasure::runtime
