// SnapshotReporter: periodic exposition of a Registry to a stream or file.
//
// A background thread wakes every `interval`, takes a snapshot, renders it
// (Prometheus text or JSON) and writes it out. File mode rewrites the file
// atomically-enough for a node_exporter textfile collector (truncate +
// write + flush); stream mode appends, one snapshot per tick, each JSON
// snapshot on its own line so logs stay greppable. stop() (or destruction)
// writes one final snapshot so short runs always leave a complete record.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "telemetry/metrics.h"

namespace instameasure::telemetry {

struct ReporterConfig {
  enum class Format { kPrometheus, kJson };

  std::chrono::milliseconds interval{1000};
  Format format = Format::kPrometheus;
  /// Exactly one of `stream` / `path` should be set; `stream` wins.
  std::ostream* stream = nullptr;
  std::string path;
};

class SnapshotReporter {
 public:
  SnapshotReporter(const Registry& registry, ReporterConfig config);
  ~SnapshotReporter();

  SnapshotReporter(const SnapshotReporter&) = delete;
  SnapshotReporter& operator=(const SnapshotReporter&) = delete;

  /// Begin periodic reporting (no-op if already running).
  void start();
  /// Stop the thread and write one final snapshot. Idempotent and safe to
  /// call concurrently; returns as soon as the tick thread wakes — never
  /// waits out `interval`.
  void stop();
  /// Render and write a snapshot right now (also usable without start()).
  void write_now();

  [[nodiscard]] std::uint64_t snapshots_written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  const Registry& registry_;
  ReporterConfig config_;
  std::mutex mu_;
  std::mutex write_mu_;  ///< serializes write_now() against the tick thread
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stopping_ = false;
  std::atomic<std::uint64_t> written_{0};
};

}  // namespace instameasure::telemetry
