// Snapshot model and exposition formats for the telemetry registry.
//
// Registry::snapshot() flattens every family into MetricSample rows —
// cells with identical label sets already summed/merged — and the two
// exporters render that: to_prometheus() emits the Prometheus text
// exposition format (v0.0.4: HELP/TYPE comments, cumulative _bucket{le=}
// series, _sum/_count), to_json() a self-contained JSON document carrying
// the same values plus precomputed p50/p90/p99/max for histograms so
// downstream tooling needs no bucket math.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace instameasure::telemetry {

struct HistogramBucket {
  std::uint64_t upper = 0;   ///< inclusive upper bound (Prometheus `le`)
  double midpoint = 0;       ///< midpoint of the bucket's value range
  std::uint64_t count = 0;   ///< observations in this bucket (not cumulative)
};

struct HistogramSnapshot {
  std::vector<HistogramBucket> buckets;  ///< non-empty buckets, ascending
  std::uint64_t count = 0;
  double sum = 0;
  std::uint64_t max = 0;

  /// Quantile estimate (midpoint of the covering bucket), q in [0, 1].
  [[nodiscard]] double quantile(double q) const noexcept;
};

struct MetricSample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  double value = 0;  ///< counter / gauge value (counters summed over cells)
  std::optional<HistogramSnapshot> histogram;
};

struct Snapshot {
  std::vector<MetricSample> samples;

  /// First sample matching name (and all labels in `filter`), if any.
  [[nodiscard]] const MetricSample* find(const std::string& name,
                                         const Labels& filter = {}) const;
};

/// Prometheus text exposition format (content-type
/// text/plain; version=0.0.4). Scrape by serving or textfile-collecting it.
[[nodiscard]] std::string to_prometheus(const Snapshot& snapshot);

/// JSON document: {"metrics":[{name,type,labels,...}]}.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

}  // namespace instameasure::telemetry
