// PacketSource test suite: the burst-capture abstraction (netio/source.h,
// netio/afpacket.h) and the source-driven engine mode
// (MultiCoreEngine::run_source).
//
// The live AF_PACKET cases need CAP_NET_RAW; without it they GTEST_SKIP
// with the socket's own error string — the suite must pass (not fail) on
// unprivileged runners, mirroring the perf-counter layer's contract.
#include "netio/source.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "netio/afpacket.h"
#include "netio/codec.h"
#include "netio/pcap.h"
#include "resilience/faultpoint.h"
#include "runtime/multicore.h"
#include "trace/generator.h"

namespace instameasure::netio {
namespace {

PacketRecord make_record(std::uint64_t ts_ns, std::uint32_t src_ip,
                         std::uint16_t sport, std::uint16_t len = 500) {
  PacketRecord rec;
  rec.timestamp_ns = ts_ns;
  rec.key = FlowKey{src_ip, 0x0A000002, sport, 80,
                    static_cast<std::uint8_t>(IpProto::kTcp)};
  rec.wire_len = len;
  return rec;
}

std::vector<PacketRecord> make_records(std::size_t n) {
  std::vector<PacketRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(make_record(1000 * i,
                                  0x0A000000 + static_cast<std::uint32_t>(i % 37),
                                  static_cast<std::uint16_t>(1000 + i % 251)));
  }
  return records;
}

// ------------------------------------------------------------ ReplaySource

TEST(ReplaySource, DeliversEveryRecordInOrder) {
  const auto records = make_records(1000);
  ReplaySource source{std::span<const PacketRecord>{records}};
  std::vector<PacketRecord> got;
  std::array<PacketRecord, 64> burst;
  while (!source.exhausted()) {
    const auto n = source.next_burst(std::span{burst});
    for (std::size_t i = 0; i < n; ++i) got.push_back(burst[i]);
  }
  ASSERT_EQ(got.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(got[i].key, records[i].key) << i;
    EXPECT_EQ(got[i].timestamp_ns, records[i].timestamp_ns) << i;
    EXPECT_EQ(got[i].wire_len, records[i].wire_len) << i;
  }
  const auto stats = source.stats();
  EXPECT_EQ(stats.received, records.size());
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_GE(stats.bursts, records.size() / 64);
  EXPECT_EQ(source.next_burst(std::span{burst}), 0u);  // after exhaustion
  EXPECT_STREQ(source.kind(), "replay");
}

TEST(ReplaySource, PartialFinalBurst) {
  const auto records = make_records(100);
  ReplaySource source{std::span<const PacketRecord>{records}};
  std::array<PacketRecord, 64> burst;
  EXPECT_EQ(source.next_burst(std::span{burst}), 64u);
  EXPECT_FALSE(source.exhausted());
  EXPECT_EQ(source.next_burst(std::span{burst}), 36u);
  EXPECT_TRUE(source.exhausted());
}

TEST(ReplaySource, PacingStretchesDelivery) {
  // 5 records spanning 80 ms of trace time: paced delivery at speed 1
  // cannot complete in under ~60 ms of wall time.
  std::vector<PacketRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(make_record(i * 20'000'000ULL, 1, 1000));
  }
  ReplaySource::Config config;
  config.pace_by_timestamps = true;
  ReplaySource source{std::span<const PacketRecord>{records}, config};
  std::array<PacketRecord, 64> burst;
  const auto start = std::chrono::steady_clock::now();
  std::size_t total = 0;
  while (!source.exhausted()) {
    total += source.next_burst(std::span{burst});
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(total, records.size());
  EXPECT_GE(elapsed, 0.06);
}

TEST(ReplaySource, SpeedFactorCompressesPacing) {
  std::vector<PacketRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(make_record(i * 20'000'000ULL, 1, 1000));
  }
  ReplaySource::Config config;
  config.pace_by_timestamps = true;
  config.speed = 100.0;  // 80 ms of trace in < ~10 ms of wall
  ReplaySource source{std::span<const PacketRecord>{records}, config};
  std::array<PacketRecord, 64> burst;
  const auto start = std::chrono::steady_clock::now();
  while (!source.exhausted()) {
    (void)source.next_burst(std::span{burst});
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 0.06);
}

TEST(ReplaySource, FixedRatePacing) {
  // 5000 records at 50 kpps: the last one is due 99.98 ms after the first
  // pull, whatever the timestamps say (they span only 5 us here).
  const auto records = make_records(5'000);
  ReplaySource::Config config;
  config.pace_pps = 50'000;
  ReplaySource source{std::span<const PacketRecord>{records}, config};
  std::array<PacketRecord, 64> burst;
  const auto start = std::chrono::steady_clock::now();
  std::size_t total = 0;
  while (!source.exhausted()) {
    total += source.next_burst(std::span{burst});
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(total, records.size());
  EXPECT_GE(elapsed, 0.0999);
  EXPECT_LT(elapsed, 0.3);
  EXPECT_GT(source.stats().wait_cycles, 0u);
}

TEST(ReplaySource, RejectsInvalidRates) {
  const auto records = make_records(10);
  const std::span<const PacketRecord> span{records};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double speed : {0.0, -1.0, nan, inf}) {
    ReplaySource::Config config;
    config.speed = speed;
    try {
      ReplaySource source{span, config};
      ADD_FAILURE() << "speed " << speed << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("speed"), std::string::npos);
    }
  }
  for (const double pps : {-1.0, nan, inf}) {
    ReplaySource::Config config;
    config.pace_pps = pps;
    try {
      ReplaySource source{span, config};
      ADD_FAILURE() << "pace_pps " << pps << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("pace_pps"), std::string::npos);
    }
  }
  ReplaySource::Config unpaced;
  unpaced.pace_pps = 0;
  EXPECT_NO_THROW((ReplaySource{span, unpaced}));
}

// ---------------------------------------------------------- PcapFileSource

class PcapSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("im_source_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".pcap"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(PcapSourceTest, MatchesReplayOfSameRecords) {
  const auto records = make_records(500);
  {
    PcapWriter writer{path_};
    for (const auto& rec : records) writer.write_record(rec);
  }
  PcapFileSource file_source{path_};
  ReplaySource replay{std::span<const PacketRecord>{records}};
  std::array<PacketRecord, 48> a, b;
  for (;;) {
    const auto na = file_source.next_burst(std::span{a});
    const auto nb = replay.next_burst(std::span{b});
    ASSERT_EQ(na, nb);
    if (na == 0) break;
    for (std::size_t i = 0; i < na; ++i) {
      EXPECT_EQ(a[i].key, b[i].key);
      EXPECT_EQ(a[i].timestamp_ns, b[i].timestamp_ns);
      EXPECT_EQ(a[i].wire_len, b[i].wire_len);
    }
  }
  EXPECT_TRUE(file_source.exhausted());
  EXPECT_EQ(file_source.stats().received, records.size());
  EXPECT_STREQ(file_source.kind(), "pcap");
}

TEST_F(PcapSourceTest, SurfacesDecodeRepairStats) {
  {
    PcapWriter writer{path_};
    auto frag = encode_frame(
        FlowKey{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)}, 64);
    frag[kEthHeaderLen + 6] = std::byte{0x00};
    frag[kEthHeaderLen + 7] = std::byte{0x10};
    writer.write(0, frag, static_cast<std::uint32_t>(frag.size()));
    std::vector<std::byte> garbage(64, std::byte{0xAA});
    writer.write(1, garbage, 64);
  }
  PcapFileSource source{path_};
  std::array<PacketRecord, 8> burst;
  while (source.next_burst(std::span{burst}) != 0) {
  }
  const auto stats = source.stats();
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.fragments, 1u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST_F(PcapSourceTest, MissingFileThrows) {
  EXPECT_THROW(PcapFileSource{"/nonexistent/file.pcap"}, std::runtime_error);
}

// ----------------------------------------------------- run_source (engine)

runtime::MultiCoreConfig small_config(unsigned workers) {
  runtime::MultiCoreConfig config;
  config.workers = workers;
  config.queue_capacity = 1 << 12;
  config.engine.regulator.l1_memory_bytes = 32 * 1024;
  config.engine.wsaf.log2_entries = 14;
  return config;
}

trace::Trace test_trace() {
  trace::TraceConfig config;
  config.duration_s = 1.0;
  config.tiers = {{4, 20'000, 40'000}, {8, 1'000, 4'000}};
  config.mice = {5'000, 1.0, 30};
  config.seed = 77;
  return trace::generate(config);
}

TEST(RunSource, MatchesDirectRunExactly) {
  const auto trace = test_trace();

  runtime::MultiCoreEngine direct{small_config(3)};
  const auto direct_stats = direct.run(trace);

  runtime::MultiCoreEngine fed{small_config(3)};
  ReplaySource source{std::span<const PacketRecord>{trace.packets}};
  const auto fed_stats = fed.run_source(source);

  EXPECT_EQ(fed_stats.packets, trace.packets.size());
  EXPECT_EQ(fed_stats.processed, direct_stats.processed);
  EXPECT_EQ(fed_stats.dropped, 0u);
  EXPECT_EQ(fed_stats.source, "replay");
  ASSERT_EQ(fed_stats.per_worker_packets.size(),
            direct_stats.per_worker_packets.size());
  for (std::size_t w = 0; w < fed_stats.per_worker_packets.size(); ++w) {
    EXPECT_EQ(fed_stats.per_worker_packets[w],
              direct_stats.per_worker_packets[w])
        << "worker " << w;
  }
  // Same packets to the same shards in the same per-flow order: the
  // queryable state must agree flow for flow.
  const auto top_direct = direct.top_k_packets(16);
  const auto top_fed = fed.top_k_packets(16);
  ASSERT_EQ(top_direct.size(), top_fed.size());
  for (std::size_t i = 0; i < top_direct.size(); ++i) {
    EXPECT_EQ(top_direct[i].key, top_fed[i].key) << i;
    EXPECT_EQ(top_direct[i].packets, top_fed[i].packets) << i;
  }
}

TEST(RunSource, MaxPacketsBoundsDelivery) {
  const auto trace = test_trace();
  runtime::MultiCoreEngine engine{small_config(2)};
  ReplaySource source{std::span<const PacketRecord>{trace.packets}};
  runtime::SourceRunConfig config;
  config.max_packets = 1000;
  const auto stats = engine.run_source(source, config);
  EXPECT_EQ(stats.packets, 1000u);
  EXPECT_EQ(stats.processed, 1000u);
  EXPECT_FALSE(source.exhausted());
}

/// A pcap savefile of `records` in the temp dir, removed on destruction.
class TempPcap {
 public:
  TempPcap(const char* tag, const std::vector<PacketRecord>& records)
      : path_((std::filesystem::temp_directory_path() /
               ("im_run_source_" + std::to_string(::getpid()) + "_" + tag +
                ".pcap"))
                  .string()) {
    PcapWriter writer{path_};
    for (const auto& rec : records) writer.write_record(rec);
  }
  ~TempPcap() { std::filesystem::remove(path_); }
  TempPcap(const TempPcap&) = delete;
  TempPcap& operator=(const TempPcap&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// The shed ladder's compensation weights ride on by-value queue items, so
// kShed works for a source whose burst buffer is reused on every pull.
TEST(RunSource, ShedThroughPcapSourceKeepsExactAccounting) {
  const auto records = make_records(20'000);
  const TempPcap pcap{"shed", records};
  resilience::ScopedFaults faults{
      {"runtime.queue_full", {.probability = 0.2, .seed = 5}}};
  auto config = small_config(2);
  config.queue_capacity = 1 << 8;
  config.overload.policy = runtime::OverloadPolicy::kShed;
  config.overload.full_queue_retries = 0;
  config.overload.escalate_after_stalls = 8;
  config.overload.max_shed_level = 4;
  runtime::MultiCoreEngine engine{config};
  PcapFileSource source{pcap.path()};
  const auto stats = engine.run_source(source);
  EXPECT_EQ(stats.source, "pcap");
  EXPECT_EQ(stats.packets, records.size());
  EXPECT_EQ(stats.processed + stats.dropped + stats.shed, stats.packets);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.shed, 0u);
  EXPECT_GE(stats.shed_level_peak, 1u);
}

// A source that throws mid-run (here a pcap whose last record is cut short)
// must not leave joinable worker threads behind: run_source stops them and
// rethrows, and the engine stays usable.
TEST(RunSource, SourceErrorStopsWorkersAndPropagates) {
  const auto records = make_records(20'000);
  const TempPcap pcap{"corrupt", records};
  std::filesystem::resize_file(pcap.path(),
                               std::filesystem::file_size(pcap.path()) - 10);
  runtime::MultiCoreEngine engine{small_config(2)};
  PcapFileSource source{pcap.path()};
  EXPECT_THROW((void)engine.run_source(source), std::runtime_error);
  ReplaySource replay{std::span<const PacketRecord>{records}};
  const auto stats = engine.run_source(replay);
  EXPECT_EQ(stats.processed, records.size());
}

// The watchdog heartbeats the workers of every source, not just replay:
// a worker wedged for 100 ms on its first burst of a pcap feed while its
// queue holds work must be reported.
TEST(RunSource, WatchdogReportsWedgedWorker) {
  const auto records = make_records(20'000);
  const TempPcap pcap{"watchdog", records};
  resilience::ScopedFaults faults{
      {"runtime.worker_stall",
       {.probability = 1.0, .max_fires = 1, .param = 100e6}}};
  auto config = small_config(1);
  config.overload.watchdog_interval_ms = 5.0;
  config.overload.watchdog_stall_intervals = 3;
  runtime::MultiCoreEngine engine{config};
  PcapFileSource source{pcap.path()};
  const auto stats = engine.run_source(source);
  EXPECT_GE(stats.watchdog_stall_reports, 1u);
  EXPECT_EQ(stats.processed, records.size());
}

TEST(RunSource, DropTailKeepsExactAccounting) {
  auto config = small_config(2);
  config.queue_capacity = 2;  // force queue-full events
  config.overload.policy = runtime::OverloadPolicy::kDropTail;
  config.overload.full_queue_retries = 0;
  runtime::MultiCoreEngine engine{config};
  const auto records = make_records(20'000);
  ReplaySource source{std::span<const PacketRecord>{records}};
  const auto stats = engine.run_source(source);
  EXPECT_EQ(stats.packets, records.size());
  EXPECT_EQ(stats.processed + stats.dropped, stats.packets);
}

// ----------------------------------------------------- AF_PACKET (gated)

TEST(AfPacket, BogusInterfaceDegradesGracefully) {
  AfPacketConfig config;
  config.interface = "im-no-such-if0";
  AfPacketSource source{config};
  // Two failure modes, both graceful: no CAP_NET_RAW (socket refused) or
  // privileged but the interface doesn't exist (bind refused). Either way:
  // unavailable with a reason, exhausted, and next_burst returns nothing.
  EXPECT_FALSE(source.available());
  EXPECT_FALSE(source.error().empty());
  EXPECT_TRUE(source.exhausted());
  std::array<PacketRecord, 8> burst;
  EXPECT_EQ(source.next_burst(std::span{burst}), 0u);
  EXPECT_STREQ(source.kind(), "afpacket");
}

TEST(AfPacket, InvalidRingGeometryReported) {
  AfPacketConfig config;
  config.interface = "lo";
  config.frame_size = 100;  // < 128 minimum
  AfPacketSource source{config};
  EXPECT_FALSE(source.available());
  EXPECT_NE(source.error().find("geometry"), std::string::npos);
}

TEST(AfPacket, BogusSinkCountsFailures) {
  AfPacketSink sink{"im-no-such-if0"};
  EXPECT_FALSE(sink.available());
  const auto frame = encode_frame(
      FlowKey{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kUdp)}, 10);
  EXPECT_FALSE(sink.send(frame));
  EXPECT_EQ(sink.sent(), 0u);
  EXPECT_EQ(sink.send_failures(), 1u);
}

/// Loopback differential: transmit a known flow mix through an
/// AfPacketSink and capture it back through an AfPacketSource on the same
/// interface; per-flow counts of OUR flows must match what was sent
/// whenever the kernel dropped nothing. Needs CAP_NET_RAW — skipped (not
/// failed) without it.
TEST(AfPacket, LoopbackDifferentialMatchesSentFlows) {
  AfPacketConfig config;
  config.interface = "lo";
  config.block_size = 1 << 18;
  config.block_count = 8;
  config.block_timeout_ms = 20;
  config.poll_timeout_ms = 100;
  AfPacketSource source{config};
  if (!source.available()) {
    GTEST_SKIP() << "AF_PACKET capture unavailable: " << source.error();
  }
  AfPacketSink sink{"lo"};
  if (!sink.available()) {
    GTEST_SKIP() << "AF_PACKET transmit unavailable: " << sink.error();
  }

  // Marker source IP distinguishes our traffic from anything else on lo.
  constexpr std::uint32_t kMarker = 0x0AFE0000;
  std::map<FlowKey, std::uint64_t> sent;
  for (int i = 0; i < 600; ++i) {
    const FlowKey key{kMarker + static_cast<std::uint32_t>(i % 7),
                      0x0AFE00FF, static_cast<std::uint16_t>(5000 + i % 7),
                      9999, static_cast<std::uint8_t>(IpProto::kUdp)};
    const auto frame = encode_frame(key, 32);
    ASSERT_TRUE(sink.send(frame)) << sink.error();
    ++sent[key];
  }

  // Drain until our flows fully arrive or the deadline passes. Loopback
  // delivers each frame once as PACKET_HOST (outgoing copies are filtered
  // by the source), so with zero kernel drops equality must be exact.
  std::map<FlowKey, std::uint64_t> got;
  std::uint64_t our_packets = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::array<PacketRecord, 128> burst;
  while (our_packets < 600 &&
         std::chrono::steady_clock::now() < deadline) {
    const auto n = source.next_burst(std::span{burst});
    for (std::size_t i = 0; i < n; ++i) {
      if ((burst[i].key.src_ip & 0xFFFF0000) != kMarker) continue;
      ++got[burst[i].key];
      ++our_packets;
    }
  }
  if (source.stats().dropped != 0) {
    GTEST_SKIP() << "kernel dropped " << source.stats().dropped
                 << " frames; per-flow equality not applicable";
  }
  EXPECT_EQ(got, sent);
}

/// Same loopback capture, fed through the engine: run_source must account
/// every delivered record (offered == processed with the block policy).
TEST(AfPacket, LoopbackEngineRunAccountsEveryRecord) {
  AfPacketConfig config;
  config.interface = "lo";
  config.block_size = 1 << 18;
  config.block_count = 8;
  config.block_timeout_ms = 20;
  AfPacketSource probe{config};
  if (!probe.available()) {
    GTEST_SKIP() << "AF_PACKET capture unavailable: " << probe.error();
  }
  AfPacketSink sink{"lo"};
  ASSERT_TRUE(sink.available()) << sink.error();

  // Transmit from a helper thread while the engine captures.
  std::thread sender{[&] {
    for (int i = 0; i < 2000; ++i) {
      const FlowKey key{0x0BAD0000 + static_cast<std::uint32_t>(i % 11),
                        0x0BAD00FF, static_cast<std::uint16_t>(6000 + i % 11),
                        8888, static_cast<std::uint8_t>(IpProto::kUdp)};
      (void)sink.send(encode_frame(key, 32));
    }
  }};

  runtime::MultiCoreEngine engine{small_config(2)};
  runtime::SourceRunConfig run_config;
  run_config.max_seconds = 5;
  run_config.stop_on_exhausted = false;
  const auto stats = engine.run_source(probe, run_config);
  sender.join();

  EXPECT_EQ(stats.source, "afpacket");
  EXPECT_EQ(stats.processed + stats.dropped, stats.packets);
  // lo carries our 2000 frames plus whatever else the host looped back.
  EXPECT_GE(stats.packets + stats.io_kernel_dropped + stats.io_skipped,
            2000u - sink.send_failures());
}

}  // namespace
}  // namespace instameasure::netio
