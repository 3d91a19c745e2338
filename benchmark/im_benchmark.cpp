// The repo benchmark: one workload per invocation.
//
// Usage: im_benchmark --workload caida|skew|live [--seed N] [--seconds S]
//                     [--trace 0|1] [--smoke] [--out-dir DIR]
//
// Deployment under test, identical for every workload: a MultiCoreEngine
// with 2 workers plus the calling thread as manager, kBlock overload
// policy, popcount dispatch, heavy-hitter threshold 500 packets, library
// defaults otherwise (128 KB regulator, 2^20-slot WSAF per worker, batched
// workers, query plane on). Every pass constructs a fresh engine and feeds
// the whole trace through run_source, the ingest path live capture uses.
// Each such pass is followed by two single-thread passes of worker 0's
// substream through a fresh InstaMeasure, timed by the thread's CPU clock
// and converted to cycles with the core clock: the per-core cost.
//
// --trace 0 measures the end-to-end metrics over timed passes. --trace 1
// runs the same passes, then one traced pass and a single-thread replay of
// worker 0's substream for the per-layer metrics, and writes
// <out-dir>/<workload>.trace.json. Every metric is printed as a table;
// the last stdout line is one JSON object with the metrics of the mode.
// Any failed self-check exits 1 without printing that line.
#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <sched.h>
#include <time.h>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "core/flow_regulator.h"
#include "core/instameasure.h"
#include "core/wsaf_table.h"
#include "netio/source.h"
#include "runtime/multicore.h"
#include "spans.h"
#include "workload.h"

namespace bench {
namespace {

using namespace instameasure;

constexpr double kScale = 0.25;
constexpr double kSmokeScale = 0.02;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 64;
/// Single-thread passes after each multi-core pass: core_cycles_per_pkt
/// is the gated cost, so it gets the larger share of a run.
constexpr std::size_t kCorePassesPerPass = 2;
constexpr std::size_t kTopK = 1000;          ///< topk_recall depth
constexpr std::size_t kQueryTopK = 100;      ///< the reader's top_k(k)
constexpr std::size_t kRestQueries = 4000;   ///< closed loop, per pass, half each kind
constexpr std::size_t kQueryLogCapacity = std::size_t{1} << 16;
constexpr auto kQueryInterval = std::chrono::microseconds(200);
constexpr std::size_t kChunk = 64;           ///< core replay chunk
// Accuracy floors, set from the committed baseline with margin (README.md).
constexpr double kMaxElephantAre = 0.025;
constexpr double kMinTopKRecall = 0.85;
// The paper's targets, printed beside the floors.
constexpr double kPaperAre = 0.01;
constexpr double kPaperTopKRecall = 0.95;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "benchmark/out";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "im_benchmark: %s\n"
               "usage: im_benchmark --workload caida|skew|live [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
      has_value = true;
    }
    const auto next = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = next();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const auto v = next();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--out-dir") {
        opt.out_dir = next();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!is_workload(opt.workload)) usage("--workload must be caida, skew or live");
  if (!(opt.seconds > 0)) usage("--seconds must be > 0");
  return opt;
}

runtime::MultiCoreConfig deployment() {
  runtime::MultiCoreConfig config;
  config.workers = kWorkers;
  config.dispatch = runtime::DispatchPolicy::kPopcount;
  config.overload.policy = runtime::OverloadPolicy::kBlock;
  config.engine.heavy_hitter.packet_threshold = kHhThreshold;
  return config;
}

/// Give the deployment's busy threads (the manager and the workers) CPUs
/// of their own: this thread's mask, which every thread it starts later
/// inherits, becomes the last kWorkers + 1 allowed CPUs. Returns the first
/// allowed CPU, left for the query reader and the OS, or -1 when there are
/// too few CPUs to split. Unpinned, the scheduler migrates workers between
/// four vCPUs and closed-loop throughput swings by about 10% run to run.
int reserve_engine_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < kWorkers + 2) return -1;
  cpu_set_t engine;
  CPU_ZERO(&engine);
  for (std::size_t i = cpus.size() - (kWorkers + 1); i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &engine);
  }
  if (sched_setaffinity(0, sizeof engine, &engine) != 0) return -1;
  return cpus.front();
}

/// Move the calling thread onto one CPU; false when that is refused.
bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// CPU time of the calling thread. Unlike wall time it stands still while
/// the thread waits for a CPU, whether the guest's scheduler or the host
/// (steal time) holds it back.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The calling thread's core clock in GHz, from a chain of dependent
/// shift/xor steps (6 cycles each on x86-64) timed by thread_cpu_ns. A
/// shared host's clock drifts by about 10% over minutes with its other
/// tenants' load; CPU time does not see that, the TSC ticks at a constant
/// rate, and a guest without a PMU has no cycle counter.
double clock_ghz() {
  constexpr std::uint64_t kSteps = 16'000'000;  // ~30 ms at 3 GHz
  constexpr double kCyclesPerStep = 6;
  std::uint64_t x = thread_cpu_ns() | 1;
  const std::uint64_t t0 = thread_cpu_ns();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));  // the chain stays serial and unfolded
  }
  const std::uint64_t t1 = thread_cpu_ns();
  return static_cast<double>(kSteps) * kCyclesPerStep /
         static_cast<double>(t1 - t0);
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank quantile of unsorted samples; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[rank - 1];
}

/// Quartiles as Python's statistics.quantiles(n=4) gives them (exclusive
/// method), so the spread printed here is the one compare.py judges.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {0, 0, 0};
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> out{};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  // The middle value is the median (statistics.median) for any n.
  out[1] = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return out;
}

// ---------------------------------------------------------------- truth --

struct Truth {
  std::vector<std::pair<FlowKey, std::uint64_t>> elephants;  ///< sorted by key
  std::unordered_set<FlowKey, netio::FlowKeyHash> top;       ///< true top-kTopK
  std::vector<FlowKey> query_keys;  ///< flows the reader looks up
};

Truth derive_truth(const Workload& w) {
  Truth t;
  std::vector<std::pair<FlowKey, std::uint64_t>> all(w.truth.begin(),
                                                     w.truth.end());
  // Ties broken by key so the top set does not depend on hash-map order.
  const auto larger = [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  const auto k = std::min(kTopK, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), larger);
  for (std::size_t i = 0; i < k; ++i) t.top.insert(all[i].first);
  for (const auto& [key, count] : all) {
    if (count >= kElephantPackets) t.elephants.emplace_back(key, count);
  }
  std::sort(t.elephants.begin(), t.elephants.end());
  for (const auto& a : w.attackers) t.query_keys.push_back(a.key);
  for (const auto& [key, count] : t.elephants) t.query_keys.push_back(key);
  return t;
}

struct Accuracy {
  double are_elephant = 0;
  double topk_recall = 0;
  double hh_recall = 0;
  double delay_p50_ms = 0;
  double delay_p90_ms = 0;
  friend bool operator==(const Accuracy&, const Accuracy&) = default;
};

Accuracy score(const runtime::MultiCoreEngine& mc, const Workload& w,
               const Truth& t) {
  Accuracy acc;
  double sum = 0;
  for (const auto& [key, count] : t.elephants) {
    const double truth = static_cast<double>(count);
    sum += std::abs(mc.query(key).packets - truth) / truth;
  }
  acc.are_elephant =
      t.elephants.empty() ? 0 : sum / static_cast<double>(t.elephants.size());

  std::size_t hits = 0;
  for (const auto& item : mc.top_k_packets(kTopK)) hits += t.top.count(item.key);
  acc.topk_recall =
      t.top.empty() ? 0 : static_cast<double>(hits) / static_cast<double>(t.top.size());

  std::map<FlowKey, std::uint64_t> first_detection;
  for (unsigned wk = 0; wk < mc.workers(); ++wk) {
    for (const auto& d : mc.engine(wk).detections()) {
      if (d.metric != core::TopKMetric::kPackets) continue;
      const auto [it, fresh] = first_detection.emplace(d.key, d.detected_at_ns);
      if (!fresh) it->second = std::min(it->second, d.detected_at_ns);
    }
  }
  std::vector<double> delays_ms;
  for (const auto& a : w.attackers) {
    const auto it = first_detection.find(a.key);
    if (it == first_detection.end()) continue;
    delays_ms.push_back((static_cast<double>(it->second) -
                         static_cast<double>(a.truth_cross_ns)) / 1e6);
  }
  acc.hh_recall = w.attackers.empty()
                      ? 0
                      : static_cast<double>(delays_ms.size()) /
                            static_cast<double>(w.attackers.size());
  acc.delay_p50_ms = quantile(delays_ms, 0.50);
  acc.delay_p90_ms = quantile(delays_ms, 0.90);
  return acc;
}

// -------------------------------------------------------------- sources --

/// Open-loop replay: each record is due at start + (ts - ts0) / speed and
/// is released once due. Ingest lag (pull time minus due time, per record)
/// goes to `lag` when tracing.
class PacedSource final : public netio::PacketSource {
 public:
  PacedSource(std::span<const PacketRecord> records, double speed,
              LogHistogram* lag)
      : records_(records),
        speed_(speed),
        trace_start_ns_(records.empty() ? 0 : records.front().timestamp_ns),
        lag_(lag) {}

  [[nodiscard]] std::size_t next_burst(std::span<PacketRecord> out) override {
    if (exhausted() || out.empty()) return 0;
    const std::uint64_t now = now_ns();
    if (wall_start_ns_ == 0) wall_start_ns_ = now;
    std::size_t filled = 0;
    while (filled < out.size() && next_ < records_.size()) {
      const auto& rec = records_[next_];
      const auto due =
          wall_start_ns_ +
          static_cast<std::uint64_t>(
              static_cast<double>(rec.timestamp_ns - trace_start_ns_) / speed_);
      if (due > now) break;
      if (lag_ != nullptr) lag_->record(now - due);
      out[filled++] = rec;
      ++next_;
    }
    if (filled == 0) {
      ++stats_.wait_cycles;
    } else {
      stats_.received += filled;
      ++stats_.bursts;
    }
    return filled;
  }
  [[nodiscard]] bool exhausted() const noexcept override {
    return next_ >= records_.size();
  }
  [[nodiscard]] netio::SourceStats stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] const char* kind() const noexcept override {
    return "paced-replay";
  }

 private:
  std::span<const PacketRecord> records_;
  double speed_;
  std::uint64_t trace_start_ns_;
  std::uint64_t wall_start_ns_ = 0;
  std::size_t next_ = 0;
  LogHistogram* lag_;
  netio::SourceStats stats_{};
};

/// Times the manager from outside: each delivering next_burst call is a
/// netio span, and the time from its return to the next pull is the
/// manager's dispatch of that burst (including backpressure waits).
class TracingSource final : public netio::PacketSource {
 public:
  TracingSource(netio::PacketSource& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::size_t next_burst(std::span<PacketRecord> out) override {
    const std::uint64_t t0 = now_ns();
    if (burst_end_ns_ != 0) {
      spans_.record(SpanName::kDispatch, SpanName::kPass, bursts_,
                    burst_end_ns_, t0);
      burst_end_ns_ = 0;
    }
    const std::size_t got = inner_.next_burst(out);
    if (got != 0) {
      const std::uint64_t t1 = now_ns();
      spans_.record(SpanName::kNextBurst, SpanName::kPass, ++bursts_, t0, t1);
      records_ += got;
      burst_end_ns_ = t1;
    }
    return got;
  }
  [[nodiscard]] bool exhausted() const noexcept override {
    return inner_.exhausted();
  }
  [[nodiscard]] netio::SourceStats stats() const noexcept override {
    return inner_.stats();
  }
  [[nodiscard]] const char* kind() const noexcept override {
    return inner_.kind();
  }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  netio::PacketSource& inner_;
  SpanRecorder& spans_;
  std::uint64_t bursts_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t burst_end_ns_ = 0;
};

// -------------------------------------------------------------- queries --

/// Query samples of one pass. Capacity is reserved once, so recording on
/// the reader thread never allocates.
struct QueryLog {
  std::vector<double> topk_us;
  std::vector<double> flow_us;
  std::vector<double> age_ms;
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;

  QueryLog() {
    topk_us.reserve(kQueryLogCapacity);
    flow_us.reserve(kQueryLogCapacity);
    age_ms.reserve(kQueryLogCapacity);
  }
  void clear() {
    topk_us.clear();
    flow_us.clear();
    age_ms.clear();
    issued = failed = 0;
  }
};

void push_capped(std::vector<double>& v, double x) {
  if (v.size() < v.capacity()) v.push_back(x);
}

/// Query i of a pass: even i ask top_k(kQueryTopK), odd i look up one flow.
void timed_query(const core::QueryEngine& q, std::size_t i,
                 std::span<const FlowKey> keys, QueryLog& log,
                 SpanRecorder* spans) {
  const bool topk = i % 2 == 0;
  ++log.issued;
  const std::uint64_t t0 = now_ns();
  try {
    if (topk) {
      (void)q.top_k(kQueryTopK, core::TopKMetric::kPackets);
    } else {
      (void)q.flow(keys[(i / 2) % keys.size()]);
    }
  } catch (const std::exception&) {
    ++log.failed;
    return;
  }
  const std::uint64_t t1 = now_ns();
  push_capped(topk ? log.topk_us : log.flow_us,
              static_cast<double>(t1 - t0) / 1e3);
  if (spans != nullptr) {
    spans->record(topk ? SpanName::kQueryTopK : SpanName::kQueryFlow,
                  SpanName::kPass, i, t0, t1);
  }
  if (const auto age = q.snapshot_age_ns();
      age != std::numeric_limits<std::uint64_t>::max()) {
    push_capped(log.age_ms, static_cast<double>(age) / 1e6);
  }
}

/// The live workload's dashboard: one thread querying every 200 µs while
/// the engine ingests. It starts once every shard has published a view;
/// before that the query plane has nothing to answer from.
class LiveReader {
 public:
  LiveReader(const core::QueryEngine& queries, std::span<const FlowKey> keys,
             QueryLog& log, SpanRecorder* spans, int cpu)
      : queries_(queries), keys_(keys), log_(log), spans_(spans), cpu_(cpu),
        thread_([this] { loop(); }) {}
  ~LiveReader() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  LiveReader(const LiveReader&) = delete;
  LiveReader& operator=(const LiveReader&) = delete;

 private:
  void loop() noexcept {
    // Off the engine's CPUs when there is one to spare; a refusal only
    // costs the reader its own CPU.
    if (cpu_ >= 0) (void)pin_to(cpu_);
    try {
      auto next = std::chrono::steady_clock::now();
      const auto tick = [&next] {
        next += kQueryInterval;
        const auto now = std::chrono::steady_clock::now();
        // A slow query delays the next one; missed slots are not bunched.
        if (next < now) {
          next = now;
        } else {
          std::this_thread::sleep_until(next);
        }
      };
      const auto all_published = [this] {
        const auto v = queries_.versions();
        return std::all_of(v.begin(), v.end(), [](auto x) { return x != 0; });
      };
      while (!stopped() && !all_published()) tick();
      for (std::size_t i = 0; !stopped(); ++i) {
        timed_query(queries_, i, keys_, log_, spans_);
        tick();
      }
    } catch (...) {
      ++log_.failed;
    }
  }
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  const core::QueryEngine& queries_;
  std::span<const FlowKey> keys_;
  QueryLog& log_;
  SpanRecorder* spans_;
  int cpu_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after every member it reads
};

// ---------------------------------------------------------------- passes --

/// Everything the traced pass and the core replay record.
struct Tracing {
  SpanRecorder manager{"manager", std::size_t{1} << 15};
  SpanRecorder reader{"query-reader", std::size_t{1} << 14};
  SpanRecorder core{"core-replay", std::size_t{1} << 15};
  LogHistogram ingest_lag;
  LogHistogram batch_call;
  std::uint64_t records = 0;
};

struct PassResult {
  double setup_s = 0;
  double wall_s = 0;
  double mpps = 0;
  double rss_mb = 0;
  runtime::RunStats stats;
  Accuracy accuracy;
  std::vector<std::uint64_t> l2_saturations;  ///< per worker
  std::vector<std::size_t> occupancy;         ///< per worker
  bool views_match_tables = false;
  std::uint64_t queries = 0;
  std::uint64_t query_failures = 0;
  std::unique_ptr<runtime::MultiCoreEngine> engine;  ///< kept when asked
};

/// A single-thread pass of worker 0's substream (core_pass).
struct CorePass {
  double cpu_s = 0;
  double clock_ghz = 0;  ///< mean of the readings before and after
  double cycles_per_pkt = 0;
  std::uint64_t l2_saturations = 0;
  std::size_t occupancy = 0;
};

PassResult run_pass(const Workload& w, const Truth& t, bool open_loop,
                    int reader_cpu, QueryLog& log, Tracing* tr,
                    bool keep_engine) {
  PassResult r;
  log.clear();
  const double rss0 = resident_mb();
  const std::uint64_t c0 = now_ns();
  auto mc = std::make_unique<runtime::MultiCoreEngine>(deployment());
  r.setup_s = static_cast<double>(now_ns() - c0) / 1e9;

  std::optional<netio::ReplaySource> replay;
  std::optional<PacedSource> paced;
  if (open_loop) {
    paced.emplace(w.packets, w.speed, tr ? &tr->ingest_lag : nullptr);
  } else {
    replay.emplace(w.packets);
  }
  netio::PacketSource& base = open_loop
                                  ? static_cast<netio::PacketSource&>(*paced)
                                  : static_cast<netio::PacketSource&>(*replay);
  std::optional<TracingSource> traced;
  if (tr != nullptr) traced.emplace(base, tr->manager);
  netio::PacketSource& source = traced ? *traced : base;

  std::uint64_t r0 = 0, r1 = 0;
  {
    std::optional<LiveReader> reader;
    if (open_loop) {
      reader.emplace(*mc->queries(), t.query_keys, log,
                     tr ? &tr->reader : nullptr, reader_cpu);
    }
    r0 = now_ns();
    r.stats = mc->run_source(source);
    r1 = now_ns();
  }
  r.wall_s = static_cast<double>(r1 - r0) / 1e9;
  r.mpps = static_cast<double>(w.packets.size()) / r.wall_s / 1e6;
  r.rss_mb = resident_mb() - rss0;
  if (tr != nullptr) {
    tr->manager.record(SpanName::kPass, SpanName::kPass, 0, r0, r1);
    tr->records = traced->records();
  }

  if (!open_loop) {
    // Closed loop: the operator queries the stopped engine's final views.
    for (std::size_t i = 0; i < kRestQueries; ++i) {
      timed_query(*mc->queries(), i, t.query_keys, log,
                  tr ? &tr->reader : nullptr);
    }
  }
  r.queries = log.issued;
  r.query_failures = log.failed;

  r.accuracy = score(*mc, w, t);
  for (unsigned wk = 0; wk < mc->workers(); ++wk) {
    r.l2_saturations.push_back(mc->engine(wk).regulator().l2_saturations());
    r.occupancy.push_back(mc->engine(wk).wsaf().occupancy());
  }
  const auto from_views = mc->queries()->top_k(kQueryTopK, core::TopKMetric::kPackets);
  const auto from_tables = mc->top_k_packets(kQueryTopK);
  // Equal counts rank in either order, so each key the view names is looked
  // up in its worker's table rather than compared by position.
  const auto table_packets = [&](const FlowKey& key) {
    const auto& engine = mc->engine(mc->worker_of(key));
    const auto entry = engine.wsaf().lookup(key, key.hash(engine.config().seed));
    return entry ? entry->packets : -1.0;
  };
  r.views_match_tables =
      std::equal(from_views.begin(), from_views.end(), from_tables.begin(),
                 from_tables.end(),
                 [](const auto& a, const auto& b) { return a.packets == b.packets; }) &&
      std::all_of(from_views.begin(), from_views.end(), [&](const auto& item) {
        return table_packets(item.key) == item.packets;
      });
  if (keep_engine) r.engine = std::move(mc);
  return r;
}

// ----------------------------------------------------------- checks ------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] std::size_t run() const noexcept { return run_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::size_t run_ = 0;
  std::vector<std::string> failures_;
};

void check_pass(const PassResult& p, const PassResult* reference,
                const Workload& w, const std::string& label, Checks& checks) {
  checks.expect(p.stats.packets == w.packets.size() &&
                    p.stats.processed == p.stats.packets &&
                    p.stats.dropped == 0,
                label + ": offered == processed under kBlock");
  checks.expect(p.views_match_tables,
                label + ": final query-plane view agrees with the tables");
  if (reference != nullptr) {
    checks.expect(p.l2_saturations == reference->l2_saturations,
                  label + ": regulator l2_saturations identical across passes");
    checks.expect(p.occupancy == reference->occupancy,
                  label + ": WSAF occupancy identical across passes");
    checks.expect(p.accuracy == reference->accuracy,
                  label + ": accuracy identical across passes");
  }
}

// -------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::array<double, 3> quartiles{};  ///< q1, median, q3 over passes
  std::size_t samples = 1;
};

template <typename Pass>
Metric over_passes(const std::string& name, const std::string& unit,
                   const std::vector<Pass>& passes,
                   std::type_identity_t<double (*)(const Pass&)> get) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(get(p));
  const auto q = quartiles(v);
  return {name, unit, q[1], q, v.size()};
}

std::vector<Metric> end_to_end(const std::vector<PassResult>& p,
                               const std::vector<CorePass>& core) {
  return {
      over_passes("core_cycles_per_pkt", "cycles", core,
                  [](const CorePass& r) { return r.cycles_per_pkt; }),
      over_passes("setup_s", "s", p, [](const PassResult& r) { return r.setup_s; }),
      over_passes("engine_rss_mb", "MB", p, [](const PassResult& r) { return r.rss_mb; }),
      over_passes("are_elephant", "ratio", p,
                  [](const PassResult& r) { return r.accuracy.are_elephant; }),
      over_passes("topk_recall", "ratio", p,
                  [](const PassResult& r) { return r.accuracy.topk_recall; }),
      over_passes("hh_recall", "ratio", p,
                  [](const PassResult& r) { return r.accuracy.hh_recall; }),
      over_passes("detect_delay_ms_p50", "ms", p,
                  [](const PassResult& r) { return r.accuracy.delay_p50_ms; }),
      over_passes("detect_delay_ms_p90", "ms", p,
                  [](const PassResult& r) { return r.accuracy.delay_p90_ms; }),
  };
}

Metric single(std::string name, std::string unit, double value) {
  return {std::move(name), std::move(unit), value, {value, value, value}, 1};
}

/// Per-layer metrics of the traced pass (runtime, netio, core.query), plus
/// the untraced timed passes' median throughput.
std::vector<Metric> traced_pass_metrics(const PassResult& p, const Tracing& tr,
                                        const QueryLog& log, bool open_loop,
                                        const std::vector<PassResult>& untraced) {
  const auto untraced_wall_s =
      over_passes("wall", "s", untraced, [](const PassResult& r) { return r.wall_s; })
          .value;
  const auto& s = p.stats;
  const double records = static_cast<double>(tr.records);
  const auto& burst = tr.manager.total(SpanName::kNextBurst);
  const auto& dispatch = tr.manager.total(SpanName::kDispatch);
  const auto max_share = *std::max_element(s.per_worker_packets.begin(),
                                           s.per_worker_packets.end());
  const auto busy_min = *std::min_element(s.worker_busy_fraction.begin(),
                                          s.worker_busy_fraction.end());
  const auto depth_max =
      *std::max_element(s.max_queue_depth.begin(), s.max_queue_depth.end());
  // Lag exists only against a schedule; in a closed loop every record is
  // due when the manager asks for it, so lag is 0 by definition.
  const auto lag_us = [&](double q) {
    return open_loop ? tr.ingest_lag.quantile(q) / 1e3 : 0.0;
  };
  return {
      single("netio.next_burst_ns_per_pkt", "ns",
             ratio(static_cast<double>(burst.total_ns), records)),
      single("netio.burst_records_mean", "count",
             ratio(records, static_cast<double>(burst.count))),
      single("netio.ingest_lag_us_p50", "us", lag_us(0.50)),
      single("netio.ingest_lag_us_p99", "us", lag_us(0.99)),
      single("netio.ingest_lag_us_max", "us",
             open_loop ? static_cast<double>(tr.ingest_lag.max()) / 1e3 : 0.0),
      over_passes("runtime.throughput_mpps", "Mpps", untraced,
                  [](const PassResult& r) { return r.mpps; }),
      single("runtime.dispatch_ns_per_pkt", "ns",
             ratio(static_cast<double>(dispatch.total_ns), records)),
      single("runtime.producer_stalls_per_kpkt", "count",
             ratio(static_cast<double>(s.producer_stalls) * 1e3,
                   static_cast<double>(s.processed))),
      single("runtime.worker_share_max", "ratio",
             ratio(static_cast<double>(max_share), static_cast<double>(s.processed))),
      single("runtime.worker_busy_min", "ratio", busy_min),
      single("runtime.queue_depth_max", "count", static_cast<double>(depth_max)),
      single("runtime.views_published", "count",
             static_cast<double>(s.views_published)),
      single("runtime.view_publishes_skipped", "count",
             static_cast<double>(s.view_publishes_skipped)),
      single("runtime.trace_overhead_pct", "%",
             (p.wall_s / untraced_wall_s - 1.0) * 100.0),
      single("core.query.flow_us_p50", "us", quantile(log.flow_us, 0.50)),
      single("core.query.flow_us_p99", "us", quantile(log.flow_us, 0.99)),
      single("core.query.topk_us_p50", "us", quantile(log.topk_us, 0.50)),
      single("core.query.topk_us_p99", "us", quantile(log.topk_us, 0.99)),
      single("core.query.count", "count", static_cast<double>(log.issued)),
      single("core.query.snapshot_age_ms_p50", "ms", quantile(log.age_ms, 0.5)),
  };
}

// ----------------------------------------------------------- core replay --

/// Strip the multi-core run's registry/trace wiring so a replica engine
/// built from worker 0's configuration is a standalone twin of it.
core::EngineConfig replica_config(core::EngineConfig c) {
  c.registry = nullptr;
  c.regulator.registry = nullptr;
  c.wsaf.registry = nullptr;
  c.publish.registry = nullptr;
  c.audit.registry = nullptr;
  c.trace = nullptr;
  c.regulator.trace = nullptr;
  c.wsaf.trace = nullptr;
  c.publish.trace = nullptr;
  c.audit.trace = nullptr;
  c.perf = nullptr;
  return c;
}

using Chunk = std::array<PacketRecord, kChunk>;

/// The packets MultiCoreEngine::worker_of sends to worker 0, in arrival
/// order, handed out in 64-packet chunks as the worker pops its queue.
class Substream {
 public:
  Substream(const runtime::MultiCoreEngine& mc, const Workload& w)
      : packets_(w.packets) {
    std::size_t n = 0;
    for (const auto& p : packets_) n += mc.worker_of(p.key) == 0;
    idx_.reserve(n);
    for (std::size_t i = 0; i < packets_.size(); ++i) {
      if (mc.worker_of(packets_[i].key) == 0) {
        idx_.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  [[nodiscard]] std::size_t size() const noexcept { return idx_.size(); }
  [[nodiscard]] std::size_t chunks() const noexcept {
    return (idx_.size() + kChunk - 1) / kChunk;
  }
  /// Copy chunk `c` into `out`; returns its length.
  std::size_t gather(std::size_t c, Chunk& out) const noexcept {
    const std::size_t len = std::min(kChunk, idx_.size() - c * kChunk);
    for (std::size_t i = 0; i < len; ++i) out[i] = packets_[idx_[c * kChunk + i]];
    return len;
  }

 private:
  std::span<const PacketRecord> packets_;
  std::vector<std::uint32_t> idx_;
};

/// One timed single-thread replay of worker 0's substream into a fresh
/// engine, by InstaMeasure::process_batch per chunk, the call a worker
/// makes per popped burst. Construction is outside the timed region; the
/// chunk copies, a worker's queue pops, are inside it. The CPU time is
/// turned into cycles with the core clock read just before and after, on
/// the same CPU: the pass runs pinned to the last CPU of the caller's mask,
/// which is restored when it ends.
CorePass core_pass(const Substream& s, const core::EngineConfig& cfg) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const bool pinned = sched_getaffinity(0, sizeof mask, &mask) == 0 && [&] {
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (CPU_ISSET(c, &mask)) return pin_to(c);
    }
    return false;
  }();
  core::InstaMeasure engine{cfg};
  Chunk chunk;
  const double ghz0 = clock_ghz();
  const std::uint64_t t0 = thread_cpu_ns();
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    const std::size_t len = s.gather(c, chunk);
    engine.process_batch(std::span<const PacketRecord>{chunk.data(), len});
  }
  const std::uint64_t t1 = thread_cpu_ns();
  const double ghz1 = clock_ghz();
  if (pinned) (void)sched_setaffinity(0, sizeof mask, &mask);
  CorePass p;
  p.cpu_s = static_cast<double>(t1 - t0) / 1e9;
  p.clock_ghz = (ghz0 + ghz1) / 2;
  p.cycles_per_pkt =
      static_cast<double>(t1 - t0) * p.clock_ghz / static_cast<double>(s.size());
  p.l2_saturations = engine.regulator().l2_saturations();
  p.occupancy = engine.wsaf().occupancy();
  return p;
}

/// Single-thread replay of the substream worker 0 received, three ways:
/// composed from the layer APIs (hash -> FlowRegulator::offer ->
/// WsafTable::accumulate, each timed per 64-packet chunk), then through
/// InstaMeasure::process and InstaMeasure::process_batch. All three must
/// end in the state worker 0 reached in the multi-core pass.
std::vector<Metric> core_replay(const runtime::MultiCoreEngine& mc,
                                const Substream& sub, Tracing& tr,
                                Checks& checks) {
  const std::size_t chunks = sub.chunks();
  Chunk chunk;
  const auto gather = [&](std::size_t c) { return sub.gather(c, chunk); };
  const auto cfg = replica_config(mc.engine(0).config());
  const auto& worker0 = mc.engine(0);
  auto& spans = tr.core;
  const double packets = static_cast<double>(sub.size());

  // 1. Composed from the layers.
  core::FlowRegulator regulator{cfg.regulator};
  core::WsafTable table{cfg.wsaf};
  {
    const std::uint64_t replay0 = now_ns();
    std::array<std::uint64_t, kChunk> hashes;
    struct Pending {
      std::uint32_t index;
      core::SaturationEvent event;
    };
    std::array<Pending, kChunk> pending;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t len = gather(c);
      const std::uint64_t c0 = now_ns();
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < len; ++i) hashes[i] = chunk[i].key.hash(cfg.seed);
      const std::uint64_t t1 = now_ns();
      std::size_t events = 0;
      for (std::size_t i = 0; i < len; ++i) {
        if (const auto e = regulator.offer(hashes[i], chunk[i].wire_len)) {
          pending[events++] = {static_cast<std::uint32_t>(i), *e};
        }
      }
      const std::uint64_t t2 = now_ns();
      for (std::size_t e = 0; e < events; ++e) {
        const auto& rec = chunk[pending[e].index];
        (void)table.accumulate(rec.key, hashes[pending[e].index],
                               pending[e].event.est_packets,
                               pending[e].event.est_bytes, rec.timestamp_ns);
      }
      const std::uint64_t t3 = now_ns();
      spans.record(SpanName::kHash, SpanName::kChunk, c, t0, t1);
      spans.record(SpanName::kRegulator, SpanName::kChunk, c, t1, t2);
      spans.record(SpanName::kWsaf, SpanName::kChunk, c, t2, t3);
      spans.record(SpanName::kChunk, SpanName::kReplay, c, c0, now_ns());
    }
    spans.record(SpanName::kReplay, SpanName::kReplay, 0, replay0, now_ns());
  }

  // 2. InstaMeasure::process, and 3. InstaMeasure::process_batch.
  core::InstaMeasure scalar{cfg};
  core::InstaMeasure batch{cfg};
  for (auto* engine : {&scalar, &batch}) {
    const bool batched = engine == &batch;
    const SpanName name = batched ? SpanName::kBatch : SpanName::kScalar;
    const std::uint64_t replay0 = now_ns();
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t len = gather(c);
      const std::uint64_t t0 = now_ns();
      if (batched) {
        engine->process_batch(std::span<const PacketRecord>{chunk.data(), len});
      } else {
        for (std::size_t i = 0; i < len; ++i) engine->process(chunk[i]);
      }
      const std::uint64_t t1 = now_ns();
      spans.record(name, SpanName::kReplay, c, t0, t1);
      if (batched) tr.batch_call.record(t1 - t0);
    }
    spans.record(SpanName::kReplay, SpanName::kReplay, batched ? 2 : 1,
                 replay0, now_ns());
  }

  const auto l2 = worker0.regulator().l2_saturations();
  const auto occ = worker0.wsaf().occupancy();
  checks.expect(regulator.l2_saturations() == l2 &&
                    scalar.regulator().l2_saturations() == l2 &&
                    batch.regulator().l2_saturations() == l2,
                "core replay: composed, process and process_batch replicas "
                "match worker 0 on l2_saturations");
  checks.expect(table.occupancy() == occ && scalar.wsaf().occupancy() == occ &&
                    batch.wsaf().occupancy() == occ,
                "core replay: composed, process and process_batch replicas "
                "match worker 0 on WSAF occupancy");
  checks.expect(scalar.detections().size() == worker0.detections().size() &&
                    batch.detections().size() == worker0.detections().size(),
                "core replay: process and process_batch replicas raise worker "
                "0's detections");

  const auto ns = [&](SpanName s) {
    return static_cast<double>(spans.total(s).total_ns);
  };
  const auto& stats = table.stats();
  const double accesses = static_cast<double>(stats.accumulates);
  return {
      single("core.hash.ns_per_pkt", "ns", ratio(ns(SpanName::kHash), packets)),
      single("core.regulator.ns_per_pkt", "ns",
             ratio(ns(SpanName::kRegulator), packets)),
      single("core.wsaf.ns_per_event", "ns", ratio(ns(SpanName::kWsaf), accesses)),
      single("core.engine.scalar_ns_per_pkt", "ns",
             ratio(ns(SpanName::kScalar), packets)),
      single("core.engine.batch_ns_per_pkt", "ns",
             ratio(ns(SpanName::kBatch), packets)),
      single("core.engine.batch_call_us_p50", "us", tr.batch_call.quantile(0.50) / 1e3),
      single("core.engine.batch_call_us_p99", "us", tr.batch_call.quantile(0.99) / 1e3),
      single("core.chunk_self_ns", "ns",
             ratio(ns(SpanName::kChunk) - ns(SpanName::kHash) -
                       ns(SpanName::kRegulator) - ns(SpanName::kWsaf),
                   static_cast<double>(chunks))),
      single("core.regulator.regulation_rate", "ratio", regulator.regulation_rate()),
      single("core.regulator.l1_saturation_rate", "ratio",
             ratio(static_cast<double>(regulator.l1_saturations()), packets)),
      single("core.wsaf.insert_share", "ratio",
             ratio(static_cast<double>(stats.inserts), accesses)),
      single("core.wsaf.probes_per_access", "count",
             ratio(static_cast<double>(stats.probes), accesses)),
      single("core.wsaf.evictions", "count", static_cast<double>(stats.evictions)),
      single("core.wsaf.occupancy", "count", static_cast<double>(table.occupancy())),
      single("core.engine.detections", "count",
             static_cast<double>(scalar.detections().size())),
  };
}

// --------------------------------------------------------------- output --

std::string number(double v) {
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return {buf.data(), res.ptr};
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-36s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 1) {
      std::printf("  q1 %.6g  q3 %.6g  (%zu passes)", m.quartiles[0],
                  m.quartiles[2], m.samples);
    }
    std::printf("\n");
  }
}

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Options& opt) {
  const double scale = opt.smoke ? kSmokeScale : kScale;
  const int reader_cpu = reserve_engine_cpus();
  const std::uint64_t origin = now_ns();
  const Workload w = make_workload(opt.workload, scale, opt.seed);
  const Truth truth = derive_truth(w);
  const bool open_loop = w.loop == Loop::kOpen;
  std::printf("workload %s  seed %llu  scale %g  packets %zu  flows %zu  "
              "elephants %zu  attackers %zu  built in %.2f s\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed), scale,
              w.packets.size(), w.truth.size(), truth.elephants.size(),
              w.attackers.size(),
              static_cast<double>(now_ns() - origin) / 1e9);
  if (reader_cpu >= 0) {
    std::printf("manager and workers on their own %u CPUs; reader on CPU %d\n",
                kWorkers + 1, reader_cpu);
  }
  if (open_loop) {
    std::printf("open loop at %.2fx trace speed (%.2f Mpps offered)\n", w.speed,
                static_cast<double>(w.packets.size()) * w.speed /
                    (static_cast<double>(w.packets.back().timestamp_ns -
                                         w.packets.front().timestamp_ns) /
                     1e9) / 1e6);
  }

  Checks checks;
  QueryLog log;
  std::uint64_t attempted = 0, failed = 0;
  // Packets offered but not processed (dropped ones included) and queries
  // that threw count as failed.
  const auto account = [&](const PassResult& p) {
    attempted += w.packets.size() + p.queries;
    failed += w.packets.size() -
              std::min<std::uint64_t>(w.packets.size(), p.stats.processed) +
              p.query_failures;
  };
  // Warm-up: unpaced on every workload, so caches and the allocator are
  // warm before the first timed pass. Its engine names worker 0's
  // substream and configuration for the single-thread passes.
  PassResult reference =
      run_pass(w, truth, /*open_loop=*/false, reader_cpu, log, nullptr, true);
  check_pass(reference, nullptr, w, "warm-up pass", checks);
  const Substream worker0(*reference.engine, w);
  const auto worker0_config = replica_config(reference.engine->engine(0).config());
  reference.engine.reset();

  // Timed passes: a multi-core pass, then single-thread passes of worker
  // 0's substream, in turn, so host drift reaches both alike.
  std::vector<PassResult> passes;
  std::vector<CorePass> core_passes;
  passes.reserve(kMaxPasses);
  core_passes.reserve(kMaxPasses * kCorePassesPerPass);
  const std::size_t min_passes = opt.smoke ? 1 : kMinPasses;
  const std::uint64_t m0 = now_ns();
  while (passes.size() < kMaxPasses &&
         (passes.size() < min_passes ||
          (!opt.smoke &&
           static_cast<double>(now_ns() - m0) / 1e9 < opt.seconds))) {
    passes.push_back(run_pass(w, truth, open_loop, reader_cpu, log, nullptr, false));
    const auto& p = passes.back();
    check_pass(p, &reference, w, "timed pass " + std::to_string(passes.size()),
               checks);
    account(p);
    std::printf("pass %2zu: %8.3f Mpps  wall %.3f s  setup %.4f s  "
                "worker shares",
                passes.size(), p.mpps, p.wall_s, p.setup_s);
    for (const auto n : p.stats.per_worker_packets) {
      std::printf(" %.3f", ratio(static_cast<double>(n),
                                 static_cast<double>(p.stats.processed)));
    }
    std::printf("\n");
    for (std::size_t i = 0; i < kCorePassesPerPass; ++i) {
      core_passes.push_back(core_pass(worker0, worker0_config));
      const auto& c = core_passes.back();
      checks.expect(c.l2_saturations == reference.l2_saturations[0] &&
                        c.occupancy == reference.occupancy[0],
                    "single-thread pass " + std::to_string(core_passes.size()) +
                        " ends in worker 0's state");
      attempted += worker0.size();
      std::printf("         one core %7.2f cycles/pkt  cpu %.3f s  clock %.3f GHz\n",
                  c.cycles_per_pkt, c.cpu_s, c.clock_ghz);
    }
  }
  const auto e2e = end_to_end(passes, core_passes);

  std::vector<Metric> per_layer;
  if (opt.trace) {
    auto tr = std::make_unique<Tracing>();
    auto traced = run_pass(w, truth, open_loop, reader_cpu, log, tr.get(), true);
    check_pass(traced, &passes.front(), w, "traced pass", checks);
    account(traced);
    per_layer = traced_pass_metrics(traced, *tr, log, open_loop, passes);
    auto core = core_replay(*traced.engine, worker0, *tr, checks);
    per_layer.insert(per_layer.end(), core.begin(), core.end());
    per_layer.push_back(over_passes("core.clock_ghz", "GHz", core_passes,
                                    [](const CorePass& r) { return r.clock_ghz; }));

    std::filesystem::create_directories(opt.out_dir);
    const auto path = opt.out_dir + "/" + w.name + ".trace.json";
    checks.expect(write_chrome_trace(path, {&tr->manager, &tr->reader, &tr->core},
                                     origin),
                  "write " + path);
    std::printf("spans written to %s\n", path.c_str());
  }

  const auto& acc = passes.front().accuracy;
  checks.expect(acc.hh_recall == 1.0, "every attacker detected (hh_recall == 1)");
  checks.expect(!truth.elephants.empty() && acc.are_elephant <= kMaxElephantAre,
                "elephant ARE within its floor");
  checks.expect(acc.topk_recall >= kMinTopKRecall, "top-K recall within its floor");

  print_table("end-to-end (median over timed passes)", e2e);
  std::printf("  accuracy floors: ARE <= %g (paper: < %g), top-%zu recall >= %g "
              "(paper: > %g)\n",
              kMaxElephantAre, kPaperAre, kTopK, kMinTopKRecall, kPaperTopKRecall);
  if (opt.trace) print_table("per-layer (traced pass + core replay)", per_layer);
  std::printf("\nchecks: %zu run, %zu failed\n", checks.run(),
              checks.failures().size());
  for (const auto& f : checks.failures()) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::fflush(stdout);
  if (!checks.ok()) return 1;
  print_result(attempted, failed, opt.trace ? per_layer : e2e);
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  try {
    return bench::run(bench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "im_benchmark: %s\n", e.what());
    return 1;
  }
}
