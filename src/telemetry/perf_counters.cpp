#include "telemetry/perf_counters.h"

#if defined(__linux__)

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace instameasure::telemetry {

namespace {

struct PerfCounterSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr std::uint64_t hw_cache(std::uint64_t cache, std::uint64_t op,
                                 std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

/// Indexed by PerfCounterId — keep in sync with the enum.
constexpr PerfCounterSpec kPerfCounterSpecs[kPerfCounterCount] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_ACCESS)},
    {PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_DTLB, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};

long perf_event_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                     unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

}  // namespace

PerfCounterGroup::PerfCounterGroup() {
  fds_.fill(-1);
  for (unsigned i = 0; i < kPerfCounterCount; ++i) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = kPerfCounterSpecs[i].type;
    attr.config = kPerfCounterSpecs[i].config;
    attr.disabled = leader_fd_ < 0 ? 1 : 0;  // group starts/stops via leader
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    const int fd = static_cast<int>(
        perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1, leader_fd_, 0));
    if (fd < 0) {
      if (leader_fd_ < 0) {
        // The leader (cycles) failed: the whole group is unavailable.
        // Typical reasons: perf_event_paranoid, no CAP_PERFMON, no PMU
        // exposed to the VM (ENOENT).
        error_ = std::string{"perf_event_open: "} + std::strerror(errno);
        return;
      }
      continue;  // this member stays unavailable; the rest still count
    }
    if (ioctl(fd, PERF_EVENT_IOC_ID, &ids_[i]) != 0) {
      close(fd);
      continue;
    }
    fds_[i] = fd;
    if (leader_fd_ < 0) leader_fd_ = fd;
  }
  if (leader_fd_ >= 0) {
    ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  }
}

PerfCounterGroup::~PerfCounterGroup() {
  for (const int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

PerfReading PerfCounterGroup::read() const noexcept {
  PerfReading reading;
  if (leader_fd_ < 0) return reading;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
  // then {value, id} per member that opened.
  struct {
    std::uint64_t nr;
    std::uint64_t time_enabled;
    std::uint64_t time_running;
    struct {
      std::uint64_t value;
      std::uint64_t id;
    } cnt[kPerfCounterCount];
  } data;
  const auto n = ::read(leader_fd_, &data, sizeof data);
  if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) return reading;
  // Multiplex scaling: with more groups than PMU slots the kernel
  // time-shares; extrapolate by enabled/running so rates stay comparable.
  double scale = 1.0;
  if (data.time_running != 0 && data.time_running < data.time_enabled) {
    scale = static_cast<double>(data.time_enabled) /
            static_cast<double>(data.time_running);
  }
  for (std::uint64_t j = 0; j < data.nr && j < kPerfCounterCount; ++j) {
    for (unsigned i = 0; i < kPerfCounterCount; ++i) {
      if (fds_[i] >= 0 && ids_[i] == data.cnt[j].id) {
        reading.values[i].value =
            static_cast<double>(data.cnt[j].value) * scale;
        reading.values[i].available = true;
        break;
      }
    }
  }
  return reading;
}

PerfStageProfiler::PerfStageProfiler(const PerfProfilerConfig& config)
    : available_(group_.available()),
      sample_mask_((std::uint64_t{1} << (config.sample_shift >= 63
                                             ? 63
                                             : config.sample_shift)) -
                   1),
      trace_(config.trace),
      trace_track_(config.trace_track) {
  if (config.registry != nullptr && available_) {
    auto& reg = *config.registry;
    tel_llc_miss_per_packet_ = reg.gauge(
        "im_perf_llc_miss_per_packet",
        "LLC load misses per packet across the batched pipeline (sampled "
        "chunks; hardware counter)",
        config.labels);
    tel_ipc_ = reg.gauge("im_perf_ipc",
                         "Instructions per cycle across the batched "
                         "pipeline (sampled chunks; hardware counter)",
                         config.labels);
    tel_dtlb_miss_per_packet_ = reg.gauge(
        "im_perf_dtlb_miss_per_packet",
        "dTLB load misses per packet across the batched pipeline (sampled "
        "chunks; hardware counter)",
        config.labels);
    for (unsigned s = 0; s < kPerfStageCount; ++s) {
      auto labels = config.labels;
      labels.push_back({"stage", to_string(static_cast<PerfStage>(s))});
      // Per-stage rates divide by the stage's own items: packets for the
      // first two stages, drained WSAF events (probes) for wsaf_drain.
      tel_stage_llc_[s] = reg.gauge("im_perf_llc_miss_per_packet", "", labels);
      tel_stage_ipc_[s] = reg.gauge("im_perf_ipc", "", labels);
      tel_stage_dtlb_[s] =
          reg.gauge("im_perf_dtlb_miss_per_packet", "", labels);
    }
  }
}

void PerfStageProfiler::stage_commit(PerfStage stage,
                                     std::uint64_t items) noexcept {
  const auto now = group_.read();
  const auto idx = static_cast<unsigned>(stage);
  chunk_delta_[idx] = now.minus(prev_);
  chunk_items_[idx] = items;
  prev_ = now;
  auto& totals = stages_[idx];
  totals.counters.add(chunk_delta_[idx]);
  totals.items += items;
  ++totals.samples;
}

void PerfStageProfiler::end_chunk(std::uint64_t packets) {
  sampled_packets_ += packets;
  ++sampled_chunks_;

  const auto rate = [](const PerfReading& r, PerfCounterId id,
                       std::uint64_t items, Gauge& gauge) {
    const auto& v = r[id];
    if (v.available && items != 0) {
      gauge.set(v.value / static_cast<double>(items));
    }
  };
  const auto ipc_of = [](const PerfReading& r, Gauge& gauge) {
    const auto& ins = r[PerfCounterId::kInstructions];
    const auto& cyc = r[PerfCounterId::kCycles];
    if (ins.available && cyc.available && cyc.value > 0) {
      gauge.set(ins.value / cyc.value);
    }
  };

  for (unsigned s = 0; s < kPerfStageCount; ++s) {
    const auto& totals = stages_[s];
    rate(totals.counters, PerfCounterId::kLlcLoadMisses, totals.items,
         tel_stage_llc_[s]);
    rate(totals.counters, PerfCounterId::kDtlbLoadMisses, totals.items,
         tel_stage_dtlb_[s]);
    ipc_of(totals.counters, tel_stage_ipc_[s]);
  }
  const auto all = totals();
  rate(all, PerfCounterId::kLlcLoadMisses, sampled_packets_,
       tel_llc_miss_per_packet_);
  rate(all, PerfCounterId::kDtlbLoadMisses, sampled_packets_,
       tel_dtlb_miss_per_packet_);
  ipc_of(all, tel_ipc_);

  if (trace_ != nullptr && trace_->wants(TraceEventKind::kPerfCounters)) {
    for (unsigned s = 0; s < kPerfStageCount; ++s) {
      if (chunk_items_[s] == 0) continue;
      const auto stage = static_cast<PerfStage>(s);
      trace_->emit(trace_track_, TraceEventKind::kPerfCounters, 0,
                   static_cast<double>(chunk_items_[s]),
                   perf_trace_aux(stage, kPerfTraceItemsField));
      for (unsigned c = 0; c < kPerfCounterCount; ++c) {
        const auto& v = chunk_delta_[s].values[c];
        if (!v.available) continue;
        trace_->emit(trace_track_, TraceEventKind::kPerfCounters, 0,
                     v.value, perf_trace_aux(stage, c + 1));
      }
    }
  }
  chunk_delta_ = {};
  chunk_items_ = {};
}

PerfReading PerfStageProfiler::totals() const noexcept {
  PerfReading sum;
  for (const auto& stage : stages_) sum.add(stage.counters);
  return sum;
}

}  // namespace instameasure::telemetry

#endif  // __linux__
