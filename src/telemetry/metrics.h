// Telemetry metrics registry (tentpole of the observability PR).
//
// Design: every handle (Counter / Gauge / Histogram) owns a shared,
// cache-line-padded cell. Handles created through a Registry leave the cell
// registered for export; default-constructed handles are standalone (fully
// functional, just not scraped). Cells are SINGLE-WRITER on the fast path:
// each worker/instance creates its own handle, writes with relaxed
// load+store (a plain add on x86 — no lock prefix), and the registry sums
// cells with identical label sets at read time. That keeps the per-packet
// cost of an enabled counter at ~1 cycle while readers (snapshot, exporter
// threads) observe values with relaxed atomic loads — wait-free on both
// sides, no torn reads, no locks anywhere near the data path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/histogram.h"

namespace instameasure::telemetry {

/// One exported label. Series with equal (name, labels) are aggregated —
/// summed — at read time; give per-instance gauges distinguishing labels
/// (e.g. worker="3") when a sum would be meaningless.
struct Label {
  std::string key;
  std::string value;
  friend bool operator==(const Label&, const Label&) = default;
};
using Labels = std::vector<Label>;

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(MetricType t) noexcept {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

/// Monotone counter cell. Padded so two workers' cells never share a line.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

/// Gauge cell: a settable double (last-write-wins per cell).
struct alignas(64) GaugeCell {
  std::atomic<double> value{0.0};
};

/// Wait-free monotone counter handle. Single-writer: one thread increments;
/// any thread may read. Create one handle per writer (the registry hands
/// out a fresh cell per call) — that is what makes inc() a plain add.
class Counter {
 public:
  Counter() : cell_(std::make_shared<CounterCell>()) {}

  void inc(std::uint64_t n = 1) noexcept {
    auto& v = cell_->value;
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(std::shared_ptr<CounterCell> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<CounterCell> cell_;
};

/// Wait-free gauge handle (single-writer set/add, any-thread read).
class Gauge {
 public:
  Gauge() : cell_(std::make_shared<GaugeCell>()) {}

  void set(double v) noexcept {
    cell_->value.store(v, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    auto& v = cell_->value;
    v.store(v.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(std::shared_ptr<GaugeCell> cell) : cell_(std::move(cell)) {}
  std::shared_ptr<GaugeCell> cell_;
};

/// Log-scale latency histogram handle (see histogram.h for the cell).
class Histogram {
 public:
  Histogram() : cell_(std::make_shared<HistogramCell>()) {}

  void record(std::uint64_t value) noexcept { cell_->record(value); }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return cell_->count.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return cell_->sum.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_value() const noexcept {
    return cell_->max.load(std::memory_order_relaxed);
  }
  /// Quantile estimate over this handle's own cell (registry snapshots
  /// aggregate across handles; this is the single-instance view).
  [[nodiscard]] double quantile(double q) const noexcept {
    return cell_->quantile(q);
  }

 private:
  friend class Registry;
  explicit Histogram(std::shared_ptr<HistogramCell> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<HistogramCell> cell_;
};

struct Snapshot;  // export.h

/// Metric registry: creation is mutex-guarded (cold path); reads aggregate.
/// Handles keep their cells alive via shared_ptr, so a registry may be
/// destroyed before (or after) the components holding handles — no
/// lifetime coupling with the data path.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create a NEW cell under (name, labels) and return its handle. Calling
  /// twice with the same name/labels yields two cells summed at read time —
  /// the intended per-worker pattern.
  [[nodiscard]] Counter counter(const std::string& name,
                                const std::string& help = {},
                                Labels labels = {});
  /// Gauges share one cell per (name, labels) — last write wins — because
  /// summing identically-labeled gauges is meaningless. Per-instance gauges
  /// should carry a distinguishing label (e.g. worker="3").
  [[nodiscard]] Gauge gauge(const std::string& name,
                            const std::string& help = {}, Labels labels = {});
  [[nodiscard]] Histogram histogram(const std::string& name,
                                    const std::string& help = {},
                                    Labels labels = {});

  /// Point-in-time aggregated view of every registered series.
  [[nodiscard]] Snapshot snapshot() const;

  /// Sum of a counter/gauge family across all cells, optionally restricted
  /// to cells carrying every label in `filter`. 0 if absent.
  [[nodiscard]] double value(const std::string& name,
                             const Labels& filter = {}) const;

 private:
  struct Series {
    Labels labels;
    std::vector<std::shared_ptr<CounterCell>> counters;
    std::vector<std::shared_ptr<GaugeCell>> gauges;
    std::vector<std::shared_ptr<HistogramCell>> histograms;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type;
    std::vector<Series> series;
  };

  Series& series_locked(const std::string& name, const std::string& help,
                        MetricType type, Labels&& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;

  friend Snapshot snapshot_of(const Registry&);
};

/// Process-wide registry for code without an obvious owner. Components in
/// this repo take an explicit Registry* instead; this exists for ad-hoc
/// instrumentation and examples.
[[nodiscard]] Registry& default_registry();

}  // namespace instameasure::telemetry
