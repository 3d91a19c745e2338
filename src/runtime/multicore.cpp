#include "runtime/multicore.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "resilience/faultpoint.h"

namespace instameasure::runtime {

namespace {

/// Busy-wait for `ns` of wall time (sleep granularity is far coarser than
/// the stalls the chaos suite injects).
void spin_for_ns(double ns) {
  if (ns <= 0) return;
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// kShed: consecutive uncontended dispatches to a worker before its ladder
/// steps back down one rung (pressure cleared).
constexpr std::uint64_t kDecayAfterClean = 8192;
/// kShed: a dispatch counts as uncontended when it pushed on the first try
/// and the queue was below this fraction of capacity.
constexpr double kCleanDepthFraction = 0.25;

/// One worker's counters for one run, on a cache line of their own. The
/// worker writes them; the watchdog reads `packets` (its heartbeat) and
/// `pressure` live; RunStats reads them after the join.
struct alignas(kCacheLine) WorkerTally {
  std::atomic<std::uint64_t> packets{0};  ///< processed so far
  std::atomic<int> pressure{0};           ///< shard's WsafPressureLevel
  std::uint64_t busy_polls = 0;           ///< polls that popped a burst
  std::uint64_t idle_polls = 0;           ///< polls that found the queue empty
};

}  // namespace

MultiCoreEngine::MultiCoreEngine(const MultiCoreConfig& config)
    : config_(config) {
  if (config.workers == 0) {
    throw std::invalid_argument(
        "MultiCoreConfig: workers must be >= 1 (got 0)");
  }
  if (config.queue_capacity < 2 ||
      !std::has_single_bit(config.queue_capacity)) {
    throw std::invalid_argument(
        "MultiCoreConfig: queue_capacity must be a power of two >= 2 (got " +
        std::to_string(config.queue_capacity) + ")");
  }
  // Track w belongs to worker w and track `workers` to the manager; a
  // smaller recorder would silently interleave unrelated streams.
  if (config.trace != nullptr &&
      config.trace->tracks() < config.workers + 1) {
    throw std::invalid_argument(
        "MultiCoreConfig: trace recorder has " +
        std::to_string(config.trace->tracks()) + " tracks but " +
        std::to_string(config.workers + 1) +
        " are required (workers + 1 manager track)");
  }
  if (config.registry != nullptr) {
    registry_ = config.registry;
  } else {
    owned_registry_ = std::make_unique<telemetry::Registry>();
    registry_ = owned_registry_.get();
  }
  const unsigned n = config.workers;
  engines_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    const telemetry::Labels worker_labels{{"worker", std::to_string(w)}};
    auto engine_config = config.engine;
    // Decorrelate the per-worker sketches; dispatch already partitions flows
    // so shards never see each other's traffic.
    engine_config.seed = config.engine.seed + w * 0x51ed270bULL;
    engine_config.regulator.seed = config.engine.regulator.seed + w;
    engine_config.registry = registry_;
    engine_config.labels = worker_labels;
    engine_config.trace = config.trace;
    engine_config.trace_track = w;
    engine_config.publish_views = true;
    engine_config.publish = config.query_plane;
    engine_config.publish.shard = w;
    // Registry/trace wiring propagates from the engine config above.
    engine_config.publish.registry = nullptr;
    engine_config.publish.trace = nullptr;
    engines_.push_back(std::make_unique<core::InstaMeasure>(engine_config));

    tel_worker_packets_.push_back(registry_->counter(
        "im_runtime_worker_packets_total", "Packets processed by the worker",
        worker_labels));
    tel_busy_polls_.push_back(registry_->counter(
        "im_runtime_worker_busy_polls_total",
        "Worker poll loops that popped at least one packet", worker_labels));
    tel_idle_polls_.push_back(registry_->counter(
        "im_runtime_worker_idle_polls_total",
        "Worker poll loops that found the queue empty", worker_labels));
    tel_dropped_.push_back(registry_->counter(
        "im_runtime_dropped_total",
        "Packets dropped at a full queue under the drop-tail policy",
        worker_labels));
    tel_shed_.push_back(registry_->counter(
        "im_runtime_shed_total",
        "Packets shed by the graceful-degradation ladder", worker_labels));
    tel_worker_stalled_.push_back(registry_->counter(
        "im_runtime_worker_stalled_total",
        "Watchdog reports of a worker making no progress with a backlog",
        worker_labels));
    tel_queue_depth_max_.push_back(registry_->gauge(
        "im_runtime_queue_depth_max",
        "Deepest SPSC queue backlog observed in the last run",
        worker_labels));
    tel_shed_level_.push_back(registry_->gauge(
        "im_runtime_shed_level",
        "Current degradation-ladder rung (admission rate 1/2^level)",
        worker_labels));
  }
  tel_producer_stalls_ = registry_->counter(
      "im_runtime_producer_stalls_total",
      "Dispatch retries because a worker queue was full");
  tel_runs_ = registry_->counter("im_runtime_runs_total",
                                 "Completed run()/run_source() calls");
  tel_mpps_ = registry_->gauge("im_runtime_mpps",
                               "Throughput of the last run (Mpackets/s)");
  tel_wall_seconds_ = registry_->gauge("im_runtime_wall_seconds",
                                       "Cumulative run() wall time");
  tel_wsaf_pressure_ = registry_->gauge(
      "im_runtime_wsaf_pressure_level",
      "Worst per-worker WSAF pressure level (0 nominal, 1 elevated, "
      "2 saturated)");
  tel_io_received_ = registry_->counter(
      "im_io_received_total", "Records delivered by the packet source");
  tel_io_kernel_dropped_ = registry_->counter(
      "im_io_kernel_dropped_total",
      "Frames the kernel dropped before delivery (AF_PACKET ring overruns)");
  tel_io_skipped_ = registry_->counter(
      "im_io_skipped_total",
      "Frames the source saw but could not decode to a record");
  tel_io_fragments_ = registry_->counter(
      "im_io_fragments_total",
      "Delivered non-first IPv4 fragments (port-0 continuation records)");
  tel_io_truncated_ = registry_->counter(
      "im_io_truncated_total",
      "Delivered records whose IPv4 total length had to be clamped");
  tel_io_bursts_ = registry_->counter(
      "im_io_bursts_total", "Non-empty bursts pulled from the packet source");
  tel_io_wait_cycles_ = registry_->counter(
      "im_io_wait_cycles_total",
      "Empty polls / pacing waits while pulling from the packet source");

  std::vector<const core::SnapshotChannel*> channels;
  channels.reserve(n);
  for (const auto& engine : engines_) {
    channels.push_back(engine->view_channel());
  }
  core::QueryEngineConfig qc;
  qc.registry = registry_;
  if (config.engine.enable_audit) {
    qc.auditors.reserve(n);
    for (const auto& engine : engines_) {
      qc.auditors.push_back(engine->auditor());
    }
  }
  // Queries run on arbitrary reader threads; they may only trace when
  // the recorder has a spare track beyond the workers' and manager's
  // (the QueryEngine serializes its own emits internally).
  if (config.trace != nullptr && config.trace->tracks() > n + 1) {
    qc.trace = config.trace;
    qc.trace_track = n + 1;
  }
  query_engine_ = std::make_unique<core::QueryEngine>(std::move(channels), qc);
}

MultiCoreEngine::~MultiCoreEngine() = default;

RunStats MultiCoreEngine::run_source(netio::PacketSource& source,
                                     const SourceRunConfig& config) {
  // The deadline is an int64 count of steady_clock ticks: NaN never
  // reaches it and a larger budget overflows the cast into one.
  const double max_budget_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::duration::max())
                                  .count();
  if (!(config.max_seconds >= 0 && config.max_seconds < max_budget_s)) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", config.max_seconds);
    throw std::invalid_argument(
        std::string{"SourceRunConfig: max_seconds must be finite, >= 0 and "
                    "below ~9.2e9 s (got "} +
        got + ")");
  }
  const unsigned n = workers();
  const OverloadConfig& ov = config_.overload;
  // Items carry records BY VALUE: a source's burst buffer is reused on the
  // very next pull, so the one copy happens here, into the worker ring —
  // never into an intermediate PacketVector.
  std::vector<std::unique_ptr<SpscQueue<QueueItem>>> queues;
  queues.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    queues.push_back(
        std::make_unique<SpscQueue<QueueItem>>(config_.queue_capacity));
  }

  std::atomic<bool> done{false};
  RunStats stats;
  stats.source = source.kind();
  stats.per_worker_packets.assign(n, 0);
  stats.per_worker_dropped.assign(n, 0);
  stats.max_queue_depth.assign(n, 0);
  stats.mean_queue_depth.assign(n, 0);
  stats.worker_busy_fraction.assign(n, 0);

  // The publishers' counts are cumulative across runs: baseline them so
  // this run reports its own views only.
  std::vector<std::uint64_t> pub0(n, 0), pub_skip0(n, 0);
  for (unsigned w = 0; w < n; ++w) {
    if (const auto* p = engines_[w]->view_publisher()) {
      pub0[w] = p->publishes();
      pub_skip0[w] = p->skipped_publishes();
    }
  }

  // Watchdog plumbing: workers publish their progress and their shard's
  // WSAF pressure level through `tally`; the watchdog (and nothing else)
  // may read them live — it must never touch the engines while workers run.
  std::vector<WorkerTally> tally(n);
  std::atomic<std::uint64_t> watchdog_reports{0};
  std::atomic<int> pressure_peak{0};
  std::atomic<bool> watchdog_stop{false};

  std::vector<std::thread> workers;
  workers.reserve(n);
  const auto start = std::chrono::steady_clock::now();
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&, w] {
      auto& queue = *queues[w];
      auto& engine = *engines_[w];
      auto& mine = tally[w];
      auto& fault_stall = resilience::faultpoint("runtime.worker_stall");
      std::array<QueueItem, 64> burst;
      std::array<const netio::PacketRecord*, 64> ptrs;
      std::uint64_t bursts_seen = 0;
      telemetry::TraceRecorder* const trace = config_.trace;
      const auto process_burst = [&](std::size_t count) {
        // Injected stall: pretend the worker wedged for param() ns before
        // touching the burst (the watchdog's detection target).
        if (fault_stall.fire()) spin_for_ns(fault_stall.param());
        // Batch begin/end give Perfetto a duration slice per burst; the
        // per-packet events the engine emits nest inside it.
        if (trace) {
          trace->emit(w, telemetry::TraceEventKind::kBatchBegin, 0,
                      static_cast<double>(count));
        }
        // Weight-1 runs go through process_batch's pointer gather
        // (bit-identical to process() on each record in order); a weighted
        // item — shed-ladder compensation — is replayed weight times
        // through process() so both packet and byte estimates scale back up.
        std::size_t i = 0;
        while (i < count) {
          if (burst[i].weight == 1) {
            std::size_t run_len = 0;
            while (i + run_len < count && burst[i + run_len].weight == 1) {
              ptrs[run_len] = &burst[i + run_len].rec;
              ++run_len;
            }
            engine.process_batch(std::span<const netio::PacketRecord* const>{
                ptrs.data(), run_len});
            i += run_len;
          } else {
            // Tell the auditor this flow's exact account is about to absorb
            // compensation replay, so audited error on it attributes to the
            // shed ladder rather than the sketch.
            engine.audit_note_shed(burst[i].rec, burst[i].weight);
            for (std::uint32_t j = 0; j < burst[i].weight; ++j) {
              engine.process(burst[i].rec);
            }
            ++i;
          }
        }
        if (trace) {
          trace->emit(w, telemetry::TraceEventKind::kBatchEnd, 0,
                      static_cast<double>(count));
        }
        // Single writer: a plain load/store keeps the heartbeat lock-free.
        mine.packets.store(mine.packets.load(std::memory_order_relaxed) + count,
                           std::memory_order_relaxed);
        tel_worker_packets_[w].inc(count);
        ++mine.busy_polls;
        tel_busy_polls_[w].inc();
        if ((++bursts_seen & 63) == 0) {
          mine.pressure.store(static_cast<int>(engine.pressure().level),
                              std::memory_order_relaxed);
        }
      };
      for (;;) {
        if (const auto got = queue.try_pop_burst(std::span{burst});
            got != 0) {
          process_burst(got);
        } else if (done.load(std::memory_order_acquire)) {
          // done was stored (release) after the producer's last push, so
          // popping after observing it sees every remaining item: one final
          // drain pass is race-free.
          while (const auto tail = queue.try_pop_burst(std::span{burst})) {
            process_burst(tail);
          }
          // Final publish from the worker (writer) thread, after the last
          // packet: queries issued after the run returns see the complete
          // shard without touching the table. The audit sweep runs on the
          // same (writer) thread for the same reason — it reads the WSAF —
          // and makes the im_audit_are/recall gauges end-of-run exact.
          engine.publish_view_now();
          engine.audit_final_sweep();
          mine.pressure.store(static_cast<int>(engine.pressure().level),
                              std::memory_order_relaxed);
          break;
        } else {
          ++mine.idle_polls;
          tel_idle_polls_[w].inc();
          std::this_thread::yield();
        }
      }
    });
  }

  // Watchdog: heartbeat the workers' progress. A worker that made zero
  // progress across `watchdog_stall_intervals` periods while its queue
  // holds work is reported stalled (once per episode). It also aggregates
  // the published WSAF pressure levels into the runtime gauge and peak.
  std::thread watchdog;
  if (ov.watchdog_interval_ms > 0) {
    watchdog = std::thread([&] {
      const auto period = std::chrono::duration<double, std::milli>(
          ov.watchdog_interval_ms);
      std::vector<std::uint64_t> last(n, 0);
      std::vector<unsigned> still(n, 0);
      std::vector<bool> reported(n, false);
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(period);
        int worst = 0;
        for (unsigned w = 0; w < n; ++w) {
          const auto now = tally[w].packets.load(std::memory_order_relaxed);
          if (now == last[w] && queues[w]->size_approx() > 0) {
            if (++still[w] >= ov.watchdog_stall_intervals && !reported[w]) {
              reported[w] = true;
              tel_worker_stalled_[w].inc();
              watchdog_reports.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            still[w] = 0;
            reported[w] = false;
          }
          last[w] = now;
          worst = std::max(
              worst, tally[w].pressure.load(std::memory_order_relaxed));
        }
        tel_wsaf_pressure_.set(static_cast<double>(worst));
        int peak = pressure_peak.load(std::memory_order_relaxed);
        while (worst > peak &&
               !pressure_peak.compare_exchange_weak(
                   peak, worst, std::memory_order_relaxed)) {
        }
      }
    });
  }

  // Manager: pull bursts from the source and dispatch each record by the
  // configured selector (popcount(src IP) is the paper's), applying the
  // overload policy when a worker queue is full.
  auto& fault_queue_full = resilience::faultpoint("runtime.queue_full");
  const auto try_push = [&](SpscQueue<QueueItem>& queue,
                            const QueueItem& item) {
    // An injected queue-full fault makes the push fail exactly as a real
    // full ring would — the policies cannot tell the difference.
    if (fault_queue_full.fire()) return false;
    return queue.try_push(item);
  };
  const auto note_stall = [&](unsigned w, std::size_t depth) {
    ++stats.producer_stalls;
    tel_producer_stalls_.inc();
    // Manager's own track (index = workers); aux says which queue.
    if (config_.trace) {
      config_.trace->emit(n, telemetry::TraceEventKind::kQueueStall, 0,
                          static_cast<double>(depth), w);
    }
  };
  // A packet the policy gave up on: dropped (kDropTail) or shed (kShed).
  const auto note_loss = [&](unsigned w, bool shed) {
    ++stats.per_worker_dropped[w];
    if (shed) {
      ++stats.shed;
      tel_shed_[w].inc();
    } else {
      ++stats.dropped;
      tel_dropped_[w].inc();
    }
  };

  // Shed-ladder state, all manager-local (the ladder is per worker queue).
  std::vector<unsigned> level(n, 0);
  std::vector<unsigned> stall_streak(n, 0);
  std::vector<std::uint64_t> clean_streak(n, 0);
  std::vector<std::uint64_t> shed_seq(n, 0);
  const auto clean_depth = static_cast<std::size_t>(
      static_cast<double>(config_.queue_capacity) * kCleanDepthFraction);
  // Mean backlog: every queue's depth, sampled once per source pull. A
  // pull per record or few while traffic keeps pace, one per 256 when the
  // manager catches up after a stall, so bursts of arrivals do not
  // outweigh the time between them.
  std::uint64_t pulls = 0;
  std::vector<std::uint64_t> depth_sum(n, 0);

  const auto dispatch = [&](const netio::PacketRecord& rec) {
    const unsigned w = worker_of(rec.key);
    auto& queue = *queues[w];
    const auto depth = queue.size_approx();
    if (depth > stats.max_queue_depth[w]) {
      stats.max_queue_depth[w] = depth;
      tel_queue_depth_max_[w].set(static_cast<double>(depth));
    }

    QueueItem item{rec, 1};
    switch (ov.policy) {
      case OverloadPolicy::kBlock: {
        while (!try_push(queue, item)) {
          note_stall(w, queue.size_approx());
          std::this_thread::yield();
        }
        return;
      }
      case OverloadPolicy::kDropTail: {
        for (unsigned r = 0; r <= ov.full_queue_retries; ++r) {
          if (try_push(queue, item)) return;
          note_stall(w, queue.size_approx());
          std::this_thread::yield();
        }
        note_loss(w, /*shed=*/false);
        return;
      }
      case OverloadPolicy::kShed: {
        // Admission rate 1/2^lvl; each admitted packet carries weight 2^lvl
        // so estimates stay unbiased. The ladder never climbs past
        // max_shed_level; 31 keeps the weight inside 32 bits.
        const unsigned lvl = std::min(level[w], 31u);
        stats.shed_level_peak = std::max(stats.shed_level_peak, lvl);
        if (lvl > 0) {
          const std::uint64_t seq = shed_seq[w]++;
          if ((seq & ((std::uint64_t{1} << lvl) - 1)) != 0) {
            note_loss(w, /*shed=*/true);
            return;
          }
          item.weight = std::uint32_t{1} << lvl;
        }
        bool pushed = false;
        bool contended = false;
        for (unsigned r = 0; r <= ov.full_queue_retries; ++r) {
          if (try_push(queue, item)) {
            pushed = true;
            break;
          }
          contended = true;
          note_stall(w, queue.size_approx());
          std::this_thread::yield();
        }
        // An admitted packet that still could not be pushed is shed
        // (its compensation weight is lost — that is the accuracy price of
        // sustained overload, bounded by the ladder climbing below).
        if (!pushed) note_loss(w, /*shed=*/true);
        if (contended) {
          clean_streak[w] = 0;
          if (++stall_streak[w] >= ov.escalate_after_stalls) {
            stall_streak[w] = 0;
            if (level[w] < ov.max_shed_level) {
              ++level[w];
              tel_shed_level_[w].set(static_cast<double>(level[w]));
            }
          }
        } else if (depth < clean_depth) {
          if (++clean_streak[w] >= kDecayAfterClean) {
            clean_streak[w] = 0;
            if (level[w] > 0) {
              --level[w];
              tel_shed_level_[w].set(static_cast<double>(level[w]));
            }
          }
        } else {
          clean_streak[w] = 0;
        }
        return;
      }
    }
  };

  // Baseline the source's own accounting so a reused source reports this
  // run's deltas only.
  const netio::SourceStats io0 = source.stats();
  std::array<netio::PacketRecord, 256> burst;
  std::uint64_t delivered = 0;
  const bool timed = config.max_seconds > 0;
  // Saturate: a budget of billions of seconds may not fit past `start`.
  const auto budget =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config.max_seconds));
  const auto deadline =
      budget < std::chrono::steady_clock::time_point::max() - start
          ? start + budget
          : std::chrono::steady_clock::time_point::max();
  const auto stop_threads = [&] {
    done.store(true, std::memory_order_release);
    for (auto& t : workers) t.join();
    watchdog_stop.store(true, std::memory_order_release);
    if (watchdog.joinable()) watchdog.join();
  };
  try {
    for (;;) {
      if (config.max_packets != 0 && delivered >= config.max_packets) break;
      if (timed && std::chrono::steady_clock::now() >= deadline) break;
      std::size_t want = burst.size();
      if (config.max_packets != 0) {
        want = static_cast<std::size_t>(std::min<std::uint64_t>(
            want, config.max_packets - delivered));
      }
      const auto got = source.next_burst(std::span{burst.data(), want});
      if (got == 0) {
        if (source.exhausted() &&
            (config.stop_on_exhausted ||
             (!timed && config.max_packets == 0))) {
          break;
        }
        // Live port between bursts (the source bounded its own wait), or a
        // paced replay ahead of schedule: try again within our budget.
        continue;
      }
      delivered += got;
      ++pulls;
      for (unsigned w = 0; w < n; ++w) depth_sum[w] += queues[w]->size_approx();
      tel_io_received_.inc(got);
      tel_io_bursts_.inc();
      if (config_.trace) {
        const auto drops = source.stats().dropped;
        config_.trace->emit(
            n, telemetry::TraceEventKind::kIoBurst, 0, static_cast<double>(got),
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                drops, std::numeric_limits<std::uint32_t>::max())));
      }
      for (std::size_t i = 0; i < got; ++i) dispatch(burst[i]);
    }
  } catch (...) {
    // A source that fails mid-run (a corrupt pcap record) must not leave
    // joinable threads behind: stop them, then let the caller see the error.
    stop_threads();
    throw;
  }
  stop_threads();
  const auto end = std::chrono::steady_clock::now();

  // Capture-plane accounting: this run's source deltas.
  const netio::SourceStats io1 = source.stats();
  stats.packets = delivered;
  stats.io_kernel_dropped = io1.dropped - io0.dropped;
  stats.io_skipped = io1.skipped - io0.skipped;
  stats.io_fragments = io1.fragments - io0.fragments;
  stats.io_truncated = io1.truncated - io0.truncated;
  stats.io_wait_cycles = io1.wait_cycles - io0.wait_cycles;
  tel_io_kernel_dropped_.inc(stats.io_kernel_dropped);
  tel_io_skipped_.inc(stats.io_skipped);
  tel_io_fragments_.inc(stats.io_fragments);
  tel_io_truncated_.inc(stats.io_truncated);
  tel_io_wait_cycles_.inc(stats.io_wait_cycles);

  stats.wall_seconds = std::chrono::duration<double>(end - start).count();
  stats.watchdog_stall_reports = watchdog_reports.load();
  // Pressure peak: the watchdog's running maximum, refreshed with the final
  // post-join levels so short runs (or watchdog-off runs) still report it.
  int peak = pressure_peak.load();
  for (unsigned w = 0; w < n; ++w) {
    peak = std::max(peak, static_cast<int>(engines_[w]->pressure().level));
  }
  stats.wsaf_pressure_peak = peak;
  tel_wsaf_pressure_.set(static_cast<double>(peak));
  for (unsigned w = 0; w < n; ++w) {
    if (const auto* p = engines_[w]->view_publisher()) {
      stats.views_published += p->publishes() - pub0[w];
      stats.view_publishes_skipped += p->skipped_publishes() - pub_skip0[w];
    }
  }

  for (unsigned w = 0; w < n; ++w) {
    const auto packets = tally[w].packets.load(std::memory_order_relaxed);
    const auto busy = tally[w].busy_polls;
    const auto polls = busy + tally[w].idle_polls;
    stats.per_worker_packets[w] = packets;
    stats.processed += packets;
    stats.worker_busy_fraction[w] =
        polls ? static_cast<double>(busy) / static_cast<double>(polls) : 0.0;
    stats.mean_queue_depth[w] =
        pulls ? static_cast<double>(depth_sum[w]) / static_cast<double>(pulls)
              : 0.0;
  }
  stats.mpps = stats.wall_seconds > 0
                   ? static_cast<double>(stats.processed) /
                         stats.wall_seconds / 1e6
                   : 0.0;
  tel_runs_.inc();
  tel_mpps_.set(stats.mpps);
  tel_wall_seconds_.add(stats.wall_seconds);
  return stats;
}

std::vector<core::TopKItem> MultiCoreEngine::top_k(
    std::size_t k, core::TopKMetric metric) const {
  std::vector<core::TopKItem> all;
  for (const auto& engine : engines_) {
    auto part = core::top_k(engine->wsaf(), k, metric);
    all.insert(all.end(), part.begin(), part.end());
  }
  // A full sort, not select_top_k's partial_sort, which can order ties
  // differently: top-K recall is scored on exactly this order.
  std::sort(all.begin(), all.end(), core::top_k_order(metric));
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace instameasure::runtime
