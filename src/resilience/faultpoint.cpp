#include "resilience/faultpoint.h"

#include "util/hash.h"

namespace instameasure::resilience {

void FaultPoint::arm(const FaultSpec& spec) noexcept {
  probability_.store(spec.probability, std::memory_order_relaxed);
  param_.store(spec.param, std::memory_order_relaxed);
  max_fires_.store(spec.max_fires, std::memory_order_relaxed);
  skip_first_.store(spec.skip_first, std::memory_order_relaxed);
  seed_.store(spec.seed, std::memory_order_relaxed);
  evaluations_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultPoint::disarm() noexcept {
  armed_.store(false, std::memory_order_release);
}

bool FaultPoint::fire_armed() noexcept {
  const auto n = evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (n < skip_first_.load(std::memory_order_relaxed)) return false;
  // Map the evaluation index through one avalanche round: evaluation n's
  // verdict is fixed by (seed, n) alone, so a schedule replays identically.
  const auto word =
      util::mix64(seed_.load(std::memory_order_relaxed) ^ (n + 1));
  const double draw =
      static_cast<double>(word >> 11) * 0x1.0p-53;  // uniform [0, 1)
  if (draw >= probability_.load(std::memory_order_relaxed)) return false;
  // Reserve a fire slot; back out when the budget is exhausted.
  const auto fired = fires_.fetch_add(1, std::memory_order_relaxed);
  if (fired >= max_fires_.load(std::memory_order_relaxed)) {
    fires_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry* registry = new FaultRegistry();  // never destroyed
  return *registry;
}

FaultPoint& FaultRegistry::point(const std::string& name) {
  std::lock_guard lock{mu_};
  for (auto* p : points_) {
    if (p->name() == name) return *p;
  }
  points_.push_back(new FaultPoint(name));  // stable address, never freed
  return *points_.back();
}

void FaultRegistry::arm(const std::string& name, const FaultSpec& spec) {
  point(name).arm(spec);
}

void FaultRegistry::disarm(const std::string& name) {
  point(name).disarm();
}

void FaultRegistry::disarm_all() {
  std::lock_guard lock{mu_};
  for (auto* p : points_) p->disarm();
}

std::vector<std::string> FaultRegistry::armed() const {
  std::lock_guard lock{mu_};
  std::vector<std::string> out;
  for (const auto* p : points_) {
    if (p->armed()) out.push_back(p->name());
  }
  return out;
}

}  // namespace instameasure::resilience
