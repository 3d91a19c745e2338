#include "telemetry/metrics.h"

#include <algorithm>

#include "telemetry/export.h"

namespace instameasure::telemetry {

namespace {

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  return labels;
}

bool contains_all(const Labels& labels, const Labels& filter) {
  for (const auto& want : filter) {
    if (std::find(labels.begin(), labels.end(), want) == labels.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Registry::Series& Registry::series_locked(const std::string& name,
                                          const std::string& help,
                                          MetricType type, Labels&& labels) {
  Family* family = nullptr;
  for (auto& f : families_) {
    if (f->name == name && f->type == type) {
      family = f.get();
      break;
    }
  }
  if (family == nullptr) {
    families_.push_back(
        std::make_unique<Family>(Family{name, help, type, {}}));
    family = families_.back().get();
  } else if (family->help.empty() && !help.empty()) {
    family->help = help;
  }
  for (auto& s : family->series) {
    if (s.labels == labels) return s;
  }
  family->series.push_back(Series{std::move(labels), {}, {}, {}});
  return family->series.back();
}

Counter Registry::counter(const std::string& name, const std::string& help,
                          Labels labels) {
  auto cell = std::make_shared<CounterCell>();
  std::lock_guard lock{mu_};
  series_locked(name, help, MetricType::kCounter, canonical(std::move(labels)))
      .counters.push_back(cell);
  return Counter{std::move(cell)};
}

Gauge Registry::gauge(const std::string& name, const std::string& help,
                      Labels labels) {
  std::lock_guard lock{mu_};
  auto& series = series_locked(name, help, MetricType::kGauge,
                               canonical(std::move(labels)));
  // Unlike counters, same-name-same-labels gauges share one cell
  // (last-write-wins): summing identically-labeled gauges is meaningless.
  // Writers that need independent gauges add a distinguishing label.
  if (series.gauges.empty()) {
    series.gauges.push_back(std::make_shared<GaugeCell>());
  }
  return Gauge{series.gauges.front()};
}

Histogram Registry::histogram(const std::string& name, const std::string& help,
                              Labels labels) {
  auto cell = std::make_shared<HistogramCell>();
  std::lock_guard lock{mu_};
  series_locked(name, help, MetricType::kHistogram,
                canonical(std::move(labels)))
      .histograms.push_back(cell);
  return Histogram{std::move(cell)};
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard lock{mu_};
  for (const auto& family : families_) {
    for (const auto& series : family->series) {
      MetricSample sample;
      sample.name = family->name;
      sample.help = family->help;
      sample.type = family->type;
      sample.labels = series.labels;
      for (const auto& cell : series.counters) {
        sample.value +=
            static_cast<double>(cell->value.load(std::memory_order_relaxed));
      }
      for (const auto& cell : series.gauges) {
        sample.value += cell->value.load(std::memory_order_relaxed);
      }
      if (family->type == MetricType::kHistogram) {
        HistogramSnapshot hist;
        std::vector<std::uint64_t> merged(HistogramCell::kBuckets, 0);
        for (const auto& cell : series.histograms) {
          hist.count += cell->count.load(std::memory_order_relaxed);
          hist.sum += cell->sum.load(std::memory_order_relaxed);
          hist.max = std::max(hist.max,
                              cell->max.load(std::memory_order_relaxed));
          for (unsigned i = 0; i < HistogramCell::kBuckets; ++i) {
            merged[i] += cell->buckets[i].load(std::memory_order_relaxed);
          }
        }
        for (unsigned i = 0; i < HistogramCell::kBuckets; ++i) {
          if (merged[i] != 0) {
            const auto [lo, hi] = HistogramCell::bucket_range(i);
            hist.buckets.push_back(
                {hi, (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0,
                 merged[i]});
          }
        }
        sample.histogram = std::move(hist);
      }
      out.samples.push_back(std::move(sample));
    }
  }
  std::stable_sort(out.samples.begin(), out.samples.end(),
                   [](const MetricSample& a, const MetricSample& b) {
                     return a.name < b.name;
                   });
  return out;
}

double Registry::value(const std::string& name, const Labels& filter) const {
  double total = 0;
  std::lock_guard lock{mu_};
  for (const auto& family : families_) {
    if (family->name != name) continue;
    for (const auto& series : family->series) {
      if (!contains_all(series.labels, filter)) continue;
      for (const auto& cell : series.counters) {
        total +=
            static_cast<double>(cell->value.load(std::memory_order_relaxed));
      }
      for (const auto& cell : series.gauges) {
        total += cell->value.load(std::memory_order_relaxed);
      }
    }
  }
  return total;
}

Registry& default_registry() {
  static Registry registry;
  return registry;
}

}  // namespace instameasure::telemetry
