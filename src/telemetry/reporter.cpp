#include "telemetry/reporter.h"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "telemetry/export.h"

namespace instameasure::telemetry {

SnapshotReporter::SnapshotReporter(const Registry& registry,
                                   ReporterConfig config)
    : registry_(registry), config_(std::move(config)) {}

SnapshotReporter::~SnapshotReporter() { stop(); }

void SnapshotReporter::start() {
  std::lock_guard lock{mu_};
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread{[this] { run(); }};
}

void SnapshotReporter::stop() {
  // Claim the thread handle under the lock so concurrent stop() calls (or
  // stop() racing the destructor) cannot both join it; the CV wakes the
  // tick thread immediately, so stop() returns in wake-up time, not in
  // `interval` time, no matter how long the interval is.
  std::thread worker;
  {
    std::lock_guard lock{mu_};
    if (!running_) return;
    stopping_ = true;
    running_ = false;
    worker = std::move(thread_);
  }
  cv_.notify_all();
  if (worker.joinable()) worker.join();
  write_now();  // final snapshot: short runs still leave a complete record
}

void SnapshotReporter::write_now() {
  std::lock_guard write_lock{write_mu_};
  const auto snapshot = registry_.snapshot();
  const std::string text = config_.format == ReporterConfig::Format::kJson
                               ? to_json(snapshot)
                               : to_prometheus(snapshot);
  bool wrote = false;
  if (config_.stream != nullptr) {
    *config_.stream << text;
    if (config_.format == ReporterConfig::Format::kJson) *config_.stream << "\n";
    config_.stream->flush();
    wrote = true;
  } else if (!config_.path.empty()) {
    // Atomic textfile publish: write the full snapshot to <path>.tmp, then
    // rename over the target. A concurrent reader (node_exporter textfile
    // collector, tail -f, the tests' hammer thread) sees either the
    // previous complete snapshot or the new complete snapshot — never a
    // truncated or half-written file, which the old in-place ios::trunc
    // write could expose between open and close.
    const std::string tmp = config_.path + ".tmp";
    {
      std::ofstream out{tmp, std::ios::trunc};
      if (out) {
        out << text;
        if (config_.format == ReporterConfig::Format::kJson) out << "\n";
        out.flush();
        wrote = out.good();
      }
    }
    if (wrote) {
      wrote = std::rename(tmp.c_str(), config_.path.c_str()) == 0;
      if (!wrote) std::remove(tmp.c_str());
    } else {
      std::remove(tmp.c_str());
    }
  }
  // Count only successful writes: snapshots_written() == 0 is the caller's
  // signal that the path never opened (e.g. missing directory).
  if (wrote) ++written_;
}

void SnapshotReporter::run() {
  std::unique_lock lock{mu_};
  while (!stopping_) {
    if (cv_.wait_for(lock, config_.interval, [this] { return stopping_; })) {
      break;
    }
    lock.unlock();
    write_now();
    lock.lock();
  }
}

}  // namespace instameasure::telemetry
