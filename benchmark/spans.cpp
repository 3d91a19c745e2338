#include "spans.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>

namespace bench {

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kPass: return "runtime.run_source";
    case SpanName::kNextBurst: return "netio.next_burst";
    case SpanName::kDispatch: return "runtime.dispatch";
    case SpanName::kQueryTopK: return "core.query.top_k";
    case SpanName::kQueryFlow: return "core.query.flow";
    case SpanName::kReplay: return "core.replay";
    case SpanName::kChunk: return "core.chunk";
    case SpanName::kHash: return "core.hash";
    case SpanName::kRegulator: return "core.regulator.offer";
    case SpanName::kWsaf: return "core.wsaf.accumulate";
    case SpanName::kScalar: return "core.engine.process";
    case SpanName::kBatch: return "core.engine.process_batch";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::string thread_name, std::size_t capacity)
    : thread_name_(std::move(thread_name)) {
  spans_.reserve(capacity);
}

std::size_t LogHistogram::index(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);
  const auto msb = static_cast<std::size_t>(63 - std::countl_zero(v));
  const std::size_t shift = msb - 7;
  return kSub + shift * kSub + static_cast<std::size_t>((v >> shift) & (kSub - 1));
}

std::uint64_t LogHistogram::lower_bound(std::size_t i) noexcept {
  if (i < kSub) return i;
  const std::size_t octave = (i - kSub) / kSub;
  const std::size_t sub = (i - kSub) % kSub;
  return static_cast<std::uint64_t>(kSub + sub) << octave;
}

double LogHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Bucket midpoint, clamped to the largest value actually recorded.
      const double lo = static_cast<double>(lower_bound(i));
      const double hi = i + 1 < kBuckets ? static_cast<double>(lower_bound(i + 1))
                                         : lo;
      return std::min((lo + hi) / 2, static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders,
                        std::uint64_t origin_ns) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file{
      std::fopen(path.c_str(), "w"), &std::fclose};
  if (!file) return false;
  std::FILE* f = file.get();
  const auto us = [origin_ns](std::uint64_t ns) {
    return static_cast<double>(ns - std::min(ns, origin_ns)) / 1e3;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t tid = 0; tid < recorders.size(); ++tid) {
    const auto& rec = *recorders[tid];
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, rec.thread_name().c_str());
    first = false;
    for (const auto& s : rec.spans()) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent\":\"%s\"}}",
                   tid, to_string(s.name), us(s.start_ns),
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   to_string(s.parent));
    }
  }
  // Aggregates cover every span, including those past a buffer's cap.
  std::fprintf(f, "\n],\"otherData\":{\"totals\":{");
  first = true;
  for (std::size_t tid = 0; tid < recorders.size(); ++tid) {
    for (std::size_t n = 0; n < static_cast<std::size_t>(SpanName::kCount); ++n) {
      const auto& t = recorders[tid]->total(static_cast<SpanName>(n));
      if (t.count == 0) continue;
      std::fprintf(f, "%s\"%s/%s\":{\"count\":%llu,\"total_ns\":%llu}",
                   first ? "" : ",", recorders[tid]->thread_name().c_str(),
                   to_string(static_cast<SpanName>(n)),
                   static_cast<unsigned long long>(t.count),
                   static_cast<unsigned long long>(t.total_ns));
      first = false;
    }
  }
  std::fprintf(f, "}}}\n");
  return std::fflush(f) == 0 && std::ferror(f) == 0;
}

}  // namespace bench
