// Flight recorder (telemetry/trace.h): ring semantics, drop accounting,
// concurrent writers vs. a draining collector, spool/JSON round trips, and
// stage attribution.
#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/stage_latency.h"
#include "core/instameasure.h"
#include "netio/packet.h"

namespace instameasure::telemetry {
namespace {

class TempFile {
 public:
  explicit TempFile(const char* stem)
      : path_((std::filesystem::temp_directory_path() /
               (std::string{stem} + "_" +
                std::to_string(::getpid()) + ".imtrc"))
                  .string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FlightRecorder, EmitDrainRoundTrip) {
  TraceConfig config;
  config.tracks = 2;
  config.ring_capacity = 64;
  TraceRecorder recorder{config};
  TraceCollector collector{recorder};

  recorder.emit(0, TraceEventKind::kPacket, 0xabcd, 64.0, 7);
  recorder.emit(1, TraceEventKind::kDetection, 0xabcd, 123.0);
  recorder.emit(0, TraceEventKind::kWsafInsert, 0xef01, 2.0);

  EXPECT_EQ(recorder.emitted(), 3u);
  EXPECT_EQ(collector.drain(), 3u);
  ASSERT_EQ(collector.events().size(), 3u);
  // Track 0 drains in emission order; fields survive intact.
  const auto& first = collector.events().front();
  EXPECT_EQ(first.kind, TraceEventKind::kPacket);
  EXPECT_EQ(first.flow_hash, 0xabcdu);
  EXPECT_DOUBLE_EQ(first.payload, 64.0);
  EXPECT_EQ(first.aux, 7u);
  EXPECT_EQ(first.track, 0);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(collector.drain(), 0u) << "rings already empty";
}

TEST(FlightRecorder, DropCounterExactAboveCapacity) {
  TraceConfig config;
  config.tracks = 1;
  config.ring_capacity = 8;
  TraceRecorder recorder{config};

  constexpr int kEmits = 50;
  for (int i = 0; i < kEmits; ++i) {
    recorder.emit(0, TraceEventKind::kPacket, 1, static_cast<double>(i));
  }
  // Drop-newest: exactly ring_capacity events land, the rest are counted.
  EXPECT_EQ(recorder.emitted(), 8u);
  EXPECT_EQ(recorder.dropped(), kEmits - 8u);

  TraceCollector collector{recorder};
  EXPECT_EQ(collector.drain(), 8u);
  for (std::size_t i = 0; i < collector.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(collector.events()[i].payload, static_cast<double>(i))
        << "the SURVIVING events are the oldest, in order";
  }
}

TEST(FlightRecorder, KindMaskGatesAndHotSwaps) {
  TraceConfig config;
  config.kind_mask = kind_bit(TraceEventKind::kDetection);
  TraceRecorder recorder{config};
  TraceCollector collector{recorder};

  EXPECT_TRUE(recorder.wants(TraceEventKind::kDetection));
  EXPECT_FALSE(recorder.wants(TraceEventKind::kPacket));

  recorder.emit(0, TraceEventKind::kPacket, 1);     // masked out
  recorder.emit(0, TraceEventKind::kDetection, 1);  // recorded
  recorder.set_kind_mask(kAllTraceKinds);
  recorder.emit(0, TraceEventKind::kPacket, 1);  // now recorded

  EXPECT_EQ(collector.drain(), 2u);
  EXPECT_EQ(collector.events()[0].kind, TraceEventKind::kDetection);
  EXPECT_EQ(collector.events()[1].kind, TraceEventKind::kPacket);

  recorder.set_kind_mask(0);
  recorder.emit(0, TraceEventKind::kDetection, 1);
  EXPECT_EQ(collector.drain(), 0u) << "mask 0 traces nothing";
  EXPECT_EQ(recorder.dropped(), 0u) << "masked emits are not drops";
}

TEST(FlightRecorder, OutOfRangeTrackIsCountedNotRacy) {
  TraceConfig config;
  config.tracks = 2;
  TraceRecorder recorder{config};
  recorder.emit(7, TraceEventKind::kPacket, 1);  // no such ring
  EXPECT_EQ(recorder.emitted(), 0u);
  EXPECT_EQ(recorder.dropped(), 1u);
}

// The satellite's centerpiece: N writers appending concurrently while the
// collector drains. Below capacity no event may be lost; timestamps on
// each track must be monotone (single writer + one shared steady clock).
TEST(FlightRecorder, ConcurrentWritersWithDrainingCollector) {
  constexpr unsigned kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50'000;

  TraceConfig config;
  config.tracks = kWriters;
  // Capacity >= the per-writer emit count: "below capacity" per the
  // recorder's contract, so not one event may be lost — whether the
  // collector keeps up or not.
  config.ring_capacity = kPerWriter;
  TraceRecorder recorder{config};
  TraceCollector collector{recorder};

  std::atomic<unsigned> writers_done{0};
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // payload = per-track sequence number
        recorder.emit(w, TraceEventKind::kPacket, w + 1,
                      static_cast<double>(i));
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  while (writers_done.load(std::memory_order_acquire) < kWriters) {
    collector.drain();
    std::this_thread::yield();
  }
  for (auto& t : writers) t.join();
  collector.drain();  // pick up the tail

  EXPECT_EQ(recorder.dropped(), 0u);
  ASSERT_EQ(collector.events().size(), kWriters * kPerWriter)
      << "no event lost below capacity";
  // Per-track: complete 0..kPerWriter-1 sequence and monotone timestamps.
  std::vector<std::uint64_t> next_seq(kWriters, 0);
  std::vector<std::uint64_t> last_ts(kWriters, 0);
  for (const auto& e : collector.events()) {
    ASSERT_LT(e.track, kWriters);
    EXPECT_EQ(e.flow_hash, e.track + 1u);
    ASSERT_EQ(e.payload, static_cast<double>(next_seq[e.track]))
        << "track " << unsigned{e.track} << " lost or reordered an event";
    ++next_seq[e.track];
    EXPECT_GE(e.ts_ns, last_ts[e.track]) << "timestamps monotone per track";
    last_ts[e.track] = e.ts_ns;
  }
  for (unsigned w = 0; w < kWriters; ++w) EXPECT_EQ(next_seq[w], kPerWriter);
  EXPECT_EQ(recorder.emitted(), kWriters * kPerWriter);
}

// Above capacity with no draining: appended + dropped must equal emits
// exactly, per track, even with all writers running concurrently.
TEST(FlightRecorder, ConcurrentDropAccountingIsExact) {
  constexpr unsigned kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20'000;

  TraceConfig config;
  config.tracks = kWriters;
  config.ring_capacity = 256;  // guaranteed overflow, nobody drains
  TraceRecorder recorder{config};

  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        recorder.emit(w, TraceEventKind::kPacket, w, static_cast<double>(i));
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(recorder.emitted() + recorder.dropped(), kWriters * kPerWriter);
  EXPECT_EQ(recorder.emitted(), kWriters * 256u)
      << "each ring filled to capacity, everything else counted dropped";
}

TEST(FlightRecorderSpool, RoundTripAndTruncatedTail) {
  // Offline tooling: works on a hand-built event vector.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 5; ++i) {
    TraceEvent e;
    e.ts_ns = 100 + static_cast<std::uint64_t>(i);
    e.flow_hash = 0xf00d;
    e.payload = i * 1.5;
    e.kind = TraceEventKind::kWsafInsert;
    e.track = 2;
    events.push_back(e);
  }

  TempFile file{"spool_roundtrip"};
  ASSERT_TRUE(write_spool(file.path(), events));
  const auto back = read_spool(file.path());
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].ts_ns, events[i].ts_ns);
    EXPECT_DOUBLE_EQ(back[i].payload, events[i].payload);
    EXPECT_EQ(back[i].kind, events[i].kind);
    EXPECT_EQ(back[i].track, events[i].track);
  }

  // A crashed writer leaves a torn final record; the reader must shrug.
  {
    std::ofstream out{file.path(), std::ios::binary | std::ios::app};
    out.write("torn", 4);
  }
  EXPECT_EQ(read_spool(file.path()).size(), events.size());

  // Bad magic is a hard error, not silent garbage.
  {
    std::ofstream out{file.path(), std::ios::binary | std::ios::trunc};
    out.write("NOTTRACE", 8);
  }
  EXPECT_THROW((void)read_spool(file.path()), std::runtime_error);
}

TEST(FlightRecorderSpool, KindNumbersSurviveRetiredKinds) {
  // A spool stores each event's kind as its number, so a kind may never be
  // renumbered: retired numbers stay holes that decode as "?".
  const std::pair<TraceEventKind, unsigned> live[] = {
      {TraceEventKind::kPacket, 0},          {TraceEventKind::kL1Saturation, 1},
      {TraceEventKind::kL2Saturation, 2},    {TraceEventKind::kWsafInsert, 3},
      {TraceEventKind::kWsafUpdate, 4},      {TraceEventKind::kWsafEvict, 5},
      {TraceEventKind::kWsafGcReclaim, 6},   {TraceEventKind::kWsafReject, 7},
      {TraceEventKind::kDetection, 8},       {TraceEventKind::kBatchBegin, 9},
      {TraceEventKind::kBatchEnd, 10},       {TraceEventKind::kQueueStall, 11},
      {TraceEventKind::kEpochSeal, 12},      {TraceEventKind::kCollectorDecode, 13},
      {TraceEventKind::kViewPublish, 14},    {TraceEventKind::kQueryMerge, 15},
      {TraceEventKind::kPerfCounters, 16},   {TraceEventKind::kAudit, 17},
      {TraceEventKind::kIoBurst, 20},        {TraceEventKind::kKindCount, 21},
  };
  for (const auto& [kind, number] : live) {
    EXPECT_EQ(static_cast<unsigned>(kind), number) << to_string(kind);
  }
  for (const unsigned retired : {18u, 19u}) {
    const auto kind = static_cast<TraceEventKind>(retired);
    EXPECT_STREQ(to_string(kind), "?") << retired;
    EXPECT_STREQ(category_of(kind), "?") << retired;
  }
}

TEST(FlightRecorderSpool, CollectorStreamsWhileDraining) {
  TraceConfig config;
  TraceRecorder recorder{config};
  TraceCollector collector{recorder};
  TempFile file{"spool_stream"};
  ASSERT_TRUE(collector.open_spool(file.path()));

  recorder.emit(0, TraceEventKind::kPacket, 1);
  collector.drain();
  recorder.emit(0, TraceEventKind::kDetection, 1, 42.0);
  collector.drain();

  const auto back = read_spool(file.path());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].kind, TraceEventKind::kDetection);
  EXPECT_DOUBLE_EQ(back[1].payload, 42.0);
}

TEST(FlightRecorderJson, ChromeTraceShape) {
  std::vector<TraceEvent> events;
  const auto add = [&](std::uint64_t ts, TraceEventKind kind,
                       std::uint64_t flow, std::uint8_t track) {
    TraceEvent e;
    e.ts_ns = ts;
    e.kind = kind;
    e.flow_hash = flow;
    e.track = track;
    events.push_back(e);
  };
  add(100, TraceEventKind::kPacket, 0xbeef, 0);
  add(200, TraceEventKind::kL1Saturation, 0xbeef, 0);
  add(300, TraceEventKind::kL2Saturation, 0xbeef, 0);
  add(400, TraceEventKind::kWsafInsert, 0xbeef, 0);
  add(500, TraceEventKind::kDetection, 0xbeef, 0);
  add(150, TraceEventKind::kBatchBegin, 0, 1);
  add(600, TraceEventKind::kBatchEnd, 0, 1);

  const auto json = to_chrome_json(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Named tracks for both writers.
  EXPECT_NE(json.find("\"name\":\"track 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"track 1\""), std::string::npos);
  // Batch slices and a full flow-arrow chain for the detected flow.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("000000000000beef"), std::string::npos);
  // Braces balance (cheap well-formedness proxy; the tool run validates
  // with a real parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(FlightRecorderStages, AttributesChainDeltas) {
  std::vector<TraceEvent> events;
  const auto add = [&](std::uint64_t ts, TraceEventKind kind,
                       std::uint64_t flow, double payload = 0) {
    TraceEvent e;
    e.ts_ns = ts;
    e.kind = kind;
    e.flow_hash = flow;
    e.payload = payload;
    events.push_back(e);
  };
  // One clean chain: 100ns packet->l1, 50ns l1->l2, 25ns l2->wsaf,
  // 10ns wsaf->detect; detection carries 5000ns of trace-clock latency.
  add(1000, TraceEventKind::kPacket, 0x1);
  add(1100, TraceEventKind::kL1Saturation, 0x1);
  add(1150, TraceEventKind::kL2Saturation, 0x1);
  add(1175, TraceEventKind::kWsafInsert, 0x1);
  add(1185, TraceEventKind::kDetection, 0x1, 5000.0);
  add(2000, TraceEventKind::kEpochSeal, 0);
  add(2100, TraceEventKind::kCollectorDecode, 0, 777.0);

  const auto report = analysis::attribute_stages(events);
  EXPECT_EQ(report.events, events.size());
  EXPECT_EQ(report.detections, 1u);
  EXPECT_EQ(report.epoch_seals, 1u);
  ASSERT_EQ(report.pipeline.size(), 5u);
  EXPECT_DOUBLE_EQ(report.pipeline[0].p50_ns, 100.0);  // packet->l1
  EXPECT_DOUBLE_EQ(report.pipeline[1].p50_ns, 50.0);   // l1->l2
  EXPECT_DOUBLE_EQ(report.pipeline[2].p50_ns, 25.0);   // l2->wsaf
  EXPECT_DOUBLE_EQ(report.pipeline[3].p50_ns, 10.0);   // wsaf->detect
  EXPECT_DOUBLE_EQ(report.pipeline[4].p50_ns, 185.0);  // packet->detect
  EXPECT_DOUBLE_EQ(report.detection_latency.p50_ns, 5000.0);
  EXPECT_DOUBLE_EQ(report.collector_decode.p50_ns, 777.0);

  const auto text = analysis::format_stage_report(report);
  EXPECT_NE(text.find("packet->l1_sat"), std::string::npos);
  EXPECT_NE(text.find("first_seen->alarm"), std::string::npos);
}

TEST(FlightRecorderIntegration, EngineEmitsChainEvents) {
  TraceConfig trace_config;
  trace_config.ring_capacity = 1 << 18;
  TraceRecorder recorder{trace_config};
  TraceCollector collector{recorder};

  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 16 * 1024;
  config.wsaf.log2_entries = 12;
  config.heavy_hitter.packet_threshold = 1000;
  config.trace = &recorder;
  core::InstaMeasure engine{config};

  const netio::FlowKey key{0x0a000001, 0x0a000002, 1234, 443, 6};
  for (int i = 0; i < 50'000; ++i) {
    engine.process(
        netio::PacketRecord{static_cast<std::uint64_t>(i) * 1000, key, 500});
  }
  collector.drain();

  // The engine hashes keys with its own seed; what matters is that every
  // stage of the chain carries the SAME flow hash (that is what links
  // the Perfetto arrows and the stage attribution).
  std::uint64_t packet_hash = 0;
  bool saw_packet = false, saw_l2 = false, saw_wsaf = false,
       saw_detect = false;
  for (const auto& e : collector.events()) {
    switch (e.kind) {
      case TraceEventKind::kPacket:
        saw_packet = true;
        packet_hash = e.flow_hash;
        break;
      case TraceEventKind::kL2Saturation: saw_l2 = true; break;
      case TraceEventKind::kWsafInsert:
      case TraceEventKind::kWsafUpdate: saw_wsaf = true; break;
      case TraceEventKind::kDetection:
        saw_detect = true;
        EXPECT_EQ(e.flow_hash, packet_hash)
            << "detection must chain to the packet events of its flow";
        break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_packet);
  EXPECT_TRUE(saw_l2);
  EXPECT_TRUE(saw_wsaf);
  EXPECT_TRUE(saw_detect) << "an elephant past the threshold must alarm";

  const auto report =
      analysis::attribute_stages(std::span{collector.events()});
  EXPECT_GT(report.detections, 0u);
  EXPECT_GT(report.pipeline[4].count, 0u) << "packet->detection measured";
}

}  // namespace
}  // namespace instameasure::telemetry
