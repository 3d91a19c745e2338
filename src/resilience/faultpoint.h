// Deterministic fault-injection harness (overload-resilience tentpole).
//
// A FaultPoint is a named site in production code where a failure can be
// provoked on demand: a queue that pretends to be full
// (runtime.queue_full), a worker that stalls mid-burst
// (runtime.worker_stall). Chaos tests arm points by name with a
// seeded FaultSpec; the same schedule replays identically because firing
// is a pure function of (seed, evaluation index) — no wall clock, no
// global RNG.
//
// Cost model: an unarmed point is one relaxed atomic load and a
// predictable branch — cheap enough for the dispatch and worker loops (fault
// points are deliberately NOT placed on the per-packet sketch path).
//
// Usage in production code (site):
//   auto& fp = resilience::faultpoint("runtime.queue_full");
//   ...
//   if (fp.fire()) { /* behave as if the queue were full */ }
//
// Usage in a chaos test (schedule):
//   resilience::FaultRegistry::instance().arm(
//       "runtime.queue_full", {.probability = 0.3, .seed = run_seed});
//   ... run workload, assert invariants ...
//   resilience::FaultRegistry::instance().disarm_all();
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace instameasure::resilience {

/// One armed failure schedule. Firing is deterministic: evaluation n fires
/// iff n >= skip_first, fires so far < max_fires, and
/// mix64(seed ^ (n+1)) maps below `probability`.
struct FaultSpec {
  double probability = 1.0;  ///< chance each evaluation fires
  std::uint64_t max_fires = ~std::uint64_t{0};  ///< stop after this many
  std::uint64_t skip_first = 0;  ///< let the first N evaluations pass
  /// Magnitude the site interprets: the stall duration in ns for
  /// runtime.worker_stall.
  double param = 0.0;
  std::uint64_t seed = 0x5eed;
};

/// A named failure site. Stable address for the process lifetime (the
/// registry never deletes points), so call sites may cache a reference.
class FaultPoint {
 public:
  explicit FaultPoint(std::string name) : name_(std::move(name)) {}
  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  /// Evaluate the site once. False whenever unarmed (the fast path).
  [[nodiscard]] bool fire() noexcept {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return fire_armed();
  }

  /// Magnitude of the armed spec (0 when unarmed). Read after fire().
  [[nodiscard]] double param() const noexcept {
    return param_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }
  /// Exact tallies (for chaos-test accounting assertions).
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fires() const noexcept {
    return fires_.load(std::memory_order_relaxed);
  }

  void arm(const FaultSpec& spec) noexcept;
  void disarm() noexcept;

 private:
  [[nodiscard]] bool fire_armed() noexcept;

  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<double> probability_{0.0};
  std::atomic<double> param_{0.0};
  std::atomic<std::uint64_t> max_fires_{0};
  std::atomic<std::uint64_t> skip_first_{0};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> fires_{0};
};

/// Process-wide catalog of fault points, keyed by name. Creation is
/// mutex-guarded (cold); fire() never takes the lock.
class FaultRegistry {
 public:
  static FaultRegistry& instance();

  /// The point named `name`, created unarmed on first use.
  [[nodiscard]] FaultPoint& point(const std::string& name);

  /// Arm `name` with `spec` (creating the point if needed) and reset its
  /// tallies, so a schedule's fire counts are per-arm.
  void arm(const std::string& name, const FaultSpec& spec);
  void disarm(const std::string& name);
  /// Disarm every point (chaos-test teardown; leaves tallies readable).
  void disarm_all();

  /// Names of currently armed points (diagnostics).
  [[nodiscard]] std::vector<std::string> armed() const;

 private:
  FaultRegistry() = default;
  mutable std::mutex mu_;
  // Stable addresses: points are heap-allocated and never erased.
  std::vector<FaultPoint*> points_;
};

/// Convenience for call sites: the (stable) point named `name`.
[[nodiscard]] inline FaultPoint& faultpoint(const std::string& name) {
  return FaultRegistry::instance().point(name);
}

/// RAII schedule: arms a set of points, disarms them on scope exit even if
/// the test throws. The standard way to write a chaos test.
class ScopedFaults {
 public:
  ScopedFaults() = default;
  ScopedFaults(
      std::initializer_list<std::pair<const char*, FaultSpec>> schedule) {
    for (const auto& [name, spec] : schedule) arm(name, spec);
  }
  ~ScopedFaults() {
    for (const auto& name : names_) FaultRegistry::instance().disarm(name);
  }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;

  void arm(const std::string& name, const FaultSpec& spec) {
    FaultRegistry::instance().arm(name, spec);
    names_.push_back(name);
  }

 private:
  std::vector<std::string> names_;
};

}  // namespace instameasure::resilience
