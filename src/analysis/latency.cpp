#include "analysis/latency.h"

#include <unordered_map>

#include "analysis/ground_truth.h"
#include "delegation/pipeline.h"

namespace instameasure::analysis {

namespace {

/// The delegation baseline's Count-Min geometry (16k counters x 4 rows).
constexpr sketch::CountMinConfig kDelegationSketch{};

}  // namespace

std::vector<FlowLatency> measure_detection_latency(
    const trace::Trace& trace, const std::vector<netio::FlowKey>& watched,
    const LatencyConfig& config) {
  // --- saturation-based: run the engine with the packet threshold armed.
  auto engine_config = config.engine;
  engine_config.heavy_hitter.packet_threshold = config.packet_threshold;
  core::InstaMeasure engine{engine_config};
  for (const auto& rec : trace.packets) engine.process(rec);

  // --- delegation-based: the full exporter -> channel -> collector
  // pipeline (see delegation/pipeline.h).
  delegation::PipelineConfig pipeline_config;
  pipeline_config.epoch_ms = config.epoch_ms;
  pipeline_config.channel.delay_ms = config.network_delay_ms;
  pipeline_config.sketch = kDelegationSketch;
  pipeline_config.packet_threshold = config.packet_threshold;
  // Both halves of the harness run on the caller's thread, so the engine's
  // trace track is single-writer-safe for the delegation events too.
  pipeline_config.trace = config.engine.trace;
  pipeline_config.trace_track = config.engine.trace_track;
  const auto delegation =
      delegation::run_pipeline(trace.packets, pipeline_config, watched);

  // --- collect results per watched flow.
  std::unordered_map<netio::FlowKey, std::uint64_t, netio::FlowKeyHash>
      saturation_detect;
  for (const auto& det : engine.detections()) {
    if (det.metric == core::TopKMetric::kPackets) {
      saturation_detect.try_emplace(det.key, det.detected_at_ns);
    }
  }

  std::vector<FlowLatency> out;
  for (const auto& key : watched) {
    const auto truth_cross = GroundTruth::crossing_time_ns(
        trace, key, config.packet_threshold, /*by_bytes=*/false);
    if (!truth_cross) continue;  // never became a heavy hitter
    FlowLatency row;
    row.key = key;
    row.truth_ns = *truth_cross;
    if (const auto it = saturation_detect.find(key);
        it != saturation_detect.end()) {
      row.saturation_ns = it->second;
    }
    if (const auto it = delegation.detections.find(key);
        it != delegation.detections.end()) {
      row.delegation_ns = it->second;
    }
    out.push_back(row);
  }
  return out;
}

}  // namespace instameasure::analysis
