#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/format.h"

namespace instameasure::telemetry {

namespace {

// Printed values must survive a JSON/Prometheus round trip exactly for
// integers and to full double precision otherwise: %.17g is lossless.
// The range check comes first: casting a double outside int64's range
// (a histogram bound near 2^64, say) is undefined behaviour.
std::string format_number(double v) {
  char buf[64];
  if (std::abs(v) < 9.0e15 &&
      v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof buf, "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

// Escape for both Prometheus label values and JSON strings. Full control-
// character coverage (\n \t \r, \u00XX for the rest) lives in
// util::json_escape — a tab or newline in a label must never emit invalid
// JSON or a broken exposition line.
std::string escaped(const std::string& s) { return util::json_escape(s); }

std::string prometheus_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ",";
    out += labels[i].key + "=\"" + escaped(labels[i].value) + "\"";
  }
  out += "}";
  return out;
}

// Label set with one extra label appended (for histogram `le`).
std::string prometheus_labels_with(const Labels& labels,
                                   const std::string& key,
                                   const std::string& value) {
  Labels extended = labels;
  extended.push_back({key, value});
  return prometheus_labels(extended);
}

}  // namespace

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (const auto& bucket : buckets) {
    seen += bucket.count;
    if (seen >= rank) return bucket.midpoint;
  }
  return static_cast<double>(max);
}

const MetricSample* Snapshot::find(const std::string& name,
                                   const Labels& filter) const {
  for (const auto& sample : samples) {
    if (sample.name != name) continue;
    const bool match = std::all_of(
        filter.begin(), filter.end(), [&](const Label& want) {
          return std::find(sample.labels.begin(), sample.labels.end(),
                           want) != sample.labels.end();
        });
    if (match) return &sample;
  }
  return nullptr;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  const std::string* last_family = nullptr;
  for (const auto& s : snapshot.samples) {
    if (last_family == nullptr || *last_family != s.name) {
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " " + s.help + "\n";
      }
      out += "# TYPE " + s.name + " " + to_string(s.type) + "\n";
      last_family = &s.name;
    }
    if (s.type == MetricType::kHistogram) {
      const auto& hist = *s.histogram;
      std::uint64_t cumulative = 0;
      for (const auto& bucket : hist.buckets) {
        cumulative += bucket.count;
        out += s.name + "_bucket" +
               prometheus_labels_with(
                   s.labels, "le",
                   format_number(static_cast<double>(bucket.upper))) +
               " " + format_number(static_cast<double>(cumulative)) + "\n";
      }
      out += s.name + "_bucket" +
             prometheus_labels_with(s.labels, "le", "+Inf") + " " +
             format_number(static_cast<double>(hist.count)) + "\n";
      out += s.name + "_sum" + prometheus_labels(s.labels) + " " +
             format_number(hist.sum) + "\n";
      out += s.name + "_count" + prometheus_labels(s.labels) + " " +
             format_number(static_cast<double>(hist.count)) + "\n";
    } else {
      out += s.name + prometheus_labels(s.labels) + " " +
             format_number(s.value) + "\n";
    }
  }
  return out;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < snapshot.samples.size(); ++i) {
    const auto& s = snapshot.samples[i];
    if (i != 0) out += ",";
    out += "{\"name\":\"";
    out += escaped(s.name);
    out += "\",\"type\":\"";
    out += to_string(s.type);
    out += "\"";
    if (!s.help.empty()) {
      out += ",\"help\":\"";
      out += escaped(s.help);
      out += "\"";
    }
    out += ",\"labels\":{";
    for (std::size_t j = 0; j < s.labels.size(); ++j) {
      if (j != 0) out += ",";
      out += "\"";
      out += escaped(s.labels[j].key);
      out += "\":\"";
      out += escaped(s.labels[j].value);
      out += "\"";
    }
    out += "}";
    if (s.type == MetricType::kHistogram) {
      const auto& hist = *s.histogram;
      out += ",\"count\":" + format_number(static_cast<double>(hist.count));
      out += ",\"sum\":" + format_number(hist.sum);
      out += ",\"max\":" + format_number(static_cast<double>(hist.max));
      out += ",\"p50\":" + format_number(hist.quantile(0.50));
      out += ",\"p90\":" + format_number(hist.quantile(0.90));
      out += ",\"p99\":" + format_number(hist.quantile(0.99));
      out += ",\"buckets\":[";
      for (std::size_t j = 0; j < hist.buckets.size(); ++j) {
        if (j != 0) out += ",";
        out += "[";
        out += format_number(static_cast<double>(hist.buckets[j].upper));
        out += ",";
        out += format_number(static_cast<double>(hist.buckets[j].count));
        out += "]";
      }
      out += "]";
    } else {
      out += ",\"value\":" + format_number(s.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace instameasure::telemetry
