#include "telemetry/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "runtime/spsc_queue.h"

namespace instameasure::telemetry {

// --- Spool I/O -----------------------------------------------------------

namespace {

constexpr char kSpoolMagic[8] = {'I', 'M', 'T', 'R', 'C', '0', '0', '1'};

}  // namespace

bool write_spool(const std::string& path,
                 std::span<const TraceEvent> events) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) return false;
  out.write(kSpoolMagic, sizeof kSpoolMagic);
  out.write(reinterpret_cast<const char*>(events.data()),
            static_cast<std::streamsize>(events.size_bytes()));
  return out.good();
}

std::vector<TraceEvent> read_spool(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("read_spool: cannot open " + path);
  char magic[sizeof kSpoolMagic];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kSpoolMagic, sizeof magic) != 0) {
    throw std::runtime_error("read_spool: bad spool magic in " + path);
  }
  std::vector<TraceEvent> events;
  TraceEvent e;
  while (in.read(reinterpret_cast<char*>(&e), sizeof e)) {
    events.push_back(e);
  }
  // A partial trailing record (writer died mid-append) is silently
  // discarded: the recorder must be readable after a crash.
  return events;
}

// --- Chrome trace-event JSON ---------------------------------------------

namespace {

void append_common(std::string& out, const TraceEvent& e,
                   std::uint64_t t0_ns) {
  char buf[160];
  // Chrome wants microseconds; keep ns resolution in the fraction.
  std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"pid\":1,\"tid\":%u",
                static_cast<double>(e.ts_ns - t0_ns) / 1e3,
                static_cast<unsigned>(e.track));
  out += buf;
}

void append_args(std::string& out, const TraceEvent& e) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ",\"args\":{\"flow\":\"%016" PRIx64
                "\",\"payload\":%.6g,\"aux\":%u}",
                e.flow_hash, e.payload, e.aux);
  out += buf;
}

/// Kinds that participate in the per-flow arrow chain, in pipeline order.
[[nodiscard]] bool chains(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kPacket:
    case TraceEventKind::kL1Saturation:
    case TraceEventKind::kL2Saturation:
    case TraceEventKind::kWsafInsert:
    case TraceEventKind::kWsafUpdate:
    case TraceEventKind::kDetection:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string to_chrome_json(std::span<const TraceEvent> events) {
  std::uint64_t t0 = ~std::uint64_t{0};
  bool track_seen[256] = {};
  // flow -> {bitmask of chain kinds already arrowed, arrow event indices}.
  // Only the FIRST event of each kind joins the arrow, so a detected
  // elephant contributes one packet->l1->l2->wsaf->detection chain instead
  // of an arrow step per packet.
  struct FlowChain {
    std::uint64_t seen_kinds = 0;
    std::vector<std::size_t> indices;
  };
  std::unordered_map<std::uint64_t, FlowChain> detected_flows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    t0 = std::min(t0, e.ts_ns);
    track_seen[e.track] = true;
    if (e.kind == TraceEventKind::kDetection && e.flow_hash != 0) {
      detected_flows[e.flow_hash];  // mark; indices collected below
    }
  }
  if (events.empty()) t0 = 0;

  std::string out;
  out.reserve(128 + events.size() * 140);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };

  // Track lanes: one process ("instameasure"), one named thread per track.
  sep();
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"instameasure\"}}";
  for (unsigned t = 0; t < 256; ++t) {
    if (!track_seen[t]) continue;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"track %u\"}}",
                  t, t);
    sep();
    out += buf;
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    sep();
    out += "{\"name\":\"";
    out += to_string(e.kind);
    out += "\",\"cat\":\"";
    out += category_of(e.kind);
    out += "\",";
    if (e.kind == TraceEventKind::kBatchBegin) {
      out += "\"ph\":\"B\",";
    } else if (e.kind == TraceEventKind::kBatchEnd) {
      out += "\"ph\":\"E\",";
    } else {
      out += "\"ph\":\"i\",\"s\":\"t\",";
    }
    append_common(out, e, t0);
    if (e.kind != TraceEventKind::kBatchEnd) append_args(out, e);
    out += '}';
    if (e.flow_hash != 0 && chains(e.kind)) {
      if (const auto it = detected_flows.find(e.flow_hash);
          it != detected_flows.end() &&
          (it->second.seen_kinds & kind_bit(e.kind)) == 0) {
        it->second.seen_kinds |= kind_bit(e.kind);
        it->second.indices.push_back(i);
      }
    }
  }

  // Flow arrows for every flow that reached a detection: s (start) on the
  // first chained event, t (step) in between, f (end) on the last. The id
  // is the flow hash, so one flow's stages connect across tracks.
  for (const auto& [flow, chain] : detected_flows) {
    const auto& indices = chain.indices;
    if (indices.size() < 2) continue;
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const auto& e = events[indices[j]];
      const char ph = j == 0 ? 's' : (j + 1 == indices.size() ? 'f' : 't');
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"%c\","
                    "\"id\":\"%016" PRIx64 "\"%s,",
                    ph, flow, ph == 'f' ? ",\"bp\":\"e\"" : "");
      sep();
      out += buf;
      append_common(out, e, t0);
      out += '}';
    }
  }

  out += "]}";
  return out;
}

// --- Recorder / collector ------------------------------------------------

/// One writer thread's ring. The SPSC queue already separates producer and
/// consumer index cache lines; the append/drop counters are single-writer
/// (producer-owned) relaxed atomics, padded off the queue's lines.
struct TraceRecorder::Ring {
  explicit Ring(std::size_t capacity) : queue(capacity) {}
  runtime::SpscQueue<TraceEvent> queue;
  alignas(runtime::kCacheLine) std::atomic<std::uint64_t> appended{0};
  std::atomic<std::uint64_t> dropped{0};
};

TraceRecorder::TraceRecorder(const TraceConfig& config)
    : mask_(config.kind_mask), epoch_(std::chrono::steady_clock::now()) {
  const unsigned n = std::max(1u, config.tracks);
  rings_.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    rings_.push_back(std::make_unique<Ring>(config.ring_capacity));
  }
}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::emit(unsigned track, TraceEventKind kind,
                         std::uint64_t flow_hash, double payload,
                         std::uint32_t aux) noexcept {
  if (!wants(kind)) return;
  if (track >= rings_.size()) {
    // Never alias another writer's ring: an out-of-range track would break
    // the single-writer discipline, so the event is counted lost instead.
    oob_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Ring& ring = *rings_[track];
  TraceEvent e;
  e.ts_ns = now_ns();
  e.flow_hash = flow_hash;
  e.payload = payload;
  e.aux = aux;
  e.kind = kind;
  e.track = static_cast<std::uint8_t>(track);
  if (ring.queue.try_push(e)) {
    auto& a = ring.appended;
    a.store(a.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  } else {
    auto& d = ring.dropped;
    d.store(d.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }
}

unsigned TraceRecorder::tracks() const noexcept {
  return static_cast<unsigned>(rings_.size());
}

std::uint64_t TraceRecorder::emitted() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rings_) {
    total += r->appended.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TraceRecorder::dropped() const noexcept {
  std::uint64_t total = oob_dropped_.load(std::memory_order_relaxed);
  for (const auto& r : rings_) {
    total += r->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

bool TraceCollector::open_spool(const std::string& path) {
  spool_.open(path, std::ios::binary | std::ios::trunc);
  if (!spool_) return false;
  spool_.write(kSpoolMagic, sizeof kSpoolMagic);
  return spool_.good();
}

std::size_t TraceCollector::drain() {
  std::size_t drained = 0;
  TraceEvent burst[256];
  for (auto& ring : recorder_->rings_) {
    for (;;) {
      const auto n = ring->queue.try_pop_burst(std::span{burst});
      if (n == 0) break;
      events_.insert(events_.end(), burst, burst + n);
      if (spool_.is_open()) {
        spool_.write(reinterpret_cast<const char*>(burst),
                     static_cast<std::streamsize>(n * sizeof(TraceEvent)));
      }
      drained += n;
    }
  }
  if (spool_.is_open() && drained != 0) spool_.flush();
  return drained;
}

bool TraceCollector::write_chrome_json(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) return false;
  out << chrome_json() << '\n';
  return out.good();
}

}  // namespace instameasure::telemetry
