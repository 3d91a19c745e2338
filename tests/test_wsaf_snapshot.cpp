#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "core/wsaf_table.h"

namespace instameasure::core {
namespace {

class WsafSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("im_wsaf_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

netio::FlowKey key_n(std::uint32_t n) {
  return netio::FlowKey{n, n + 7, static_cast<std::uint16_t>(n), 80, 6};
}

// Tables are always fed hashes seeded with their own config.seed — the
// engine enforces this (config.wsaf.seed = config.seed) and the v2
// snapshot loader cross-checks each record's flow_id against
// key.hash(header.seed), so an unseeded hash would be rejected at load.
constexpr std::uint64_t kSeed = 0x1234;

WsafTable populated_table(WsafLayout layout = WsafLayout::kScalarProbe) {
  WsafConfig config;
  config.log2_entries = 10;
  config.probe_limit = 8;
  config.seed = kSeed;
  config.layout = layout;
  WsafTable table{config};
  for (std::uint32_t n = 0; n < 200; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(kSeed), static_cast<double>(n) + 0.5,
                     static_cast<double>(n) * 100.0, n * 10);
  }
  return table;
}

TEST_F(WsafSnapshotTest, RoundTripPreservesEverything) {
  const auto original = populated_table();
  original.save(path_);
  const auto restored = WsafTable::load(path_);

  EXPECT_EQ(restored.occupancy(), original.occupancy());
  EXPECT_EQ(restored.config().log2_entries, original.config().log2_entries);
  EXPECT_EQ(restored.config().probe_limit, original.config().probe_limit);
  EXPECT_EQ(restored.config().seed, original.config().seed);
  EXPECT_EQ(restored.config().layout, WsafLayout::kScalarProbe);

  for (std::uint32_t n = 0; n < 200; ++n) {
    const auto key = key_n(n);
    const auto a = original.lookup(key, key.hash(kSeed));
    const auto b = restored.lookup(key, key.hash(kSeed));
    ASSERT_EQ(a.has_value(), b.has_value()) << "flow " << n;
    if (!a) continue;
    EXPECT_DOUBLE_EQ(a->packets, b->packets);
    EXPECT_DOUBLE_EQ(a->bytes, b->bytes);
    EXPECT_EQ(a->last_update_ns, b->last_update_ns);
    EXPECT_EQ(a->flow_id, b->flow_id);
  }
}

TEST_F(WsafSnapshotTest, BucketedRoundTripPreservesLayoutAndEntries) {
  // The bucketed layout serializes NOTHING extra — tags/bitmaps are
  // rebuilt from the records — so the round trip must restore a table
  // whose lookups (which go through the rebuilt metadata) match.
  const auto original = populated_table(WsafLayout::kBucketed);
  original.save(path_);
  const auto restored = WsafTable::load(path_);

  EXPECT_EQ(restored.config().layout, WsafLayout::kBucketed);
  EXPECT_EQ(restored.policy_version(), 2u);
  EXPECT_EQ(restored.occupancy(), original.occupancy());
  for (std::uint32_t n = 0; n < 200; ++n) {
    const auto key = key_n(n);
    const auto a = original.lookup(key, key.hash(kSeed));
    const auto b = restored.lookup(key, key.hash(kSeed));
    ASSERT_EQ(a.has_value(), b.has_value()) << "flow " << n;
    if (!a) continue;
    EXPECT_DOUBLE_EQ(a->packets, b->packets);
    EXPECT_DOUBLE_EQ(a->bytes, b->bytes);
    EXPECT_EQ(a->flow_id, b->flow_id);
  }
}

TEST_F(WsafSnapshotTest, RestoredBucketedTableAcceptsNewAccumulates) {
  populated_table(WsafLayout::kBucketed).save(path_);
  auto restored = WsafTable::load(path_);
  const auto key = key_n(5);
  const auto before = restored.lookup(key, key.hash(kSeed))->packets;
  restored.accumulate(key, key.hash(kSeed), 10.0, 0.0, 99'999);
  EXPECT_DOUBLE_EQ(restored.lookup(key, key.hash(kSeed))->packets, before + 10.0);
}

TEST_F(WsafSnapshotTest, RestoredTableAcceptsNewAccumulates) {
  populated_table().save(path_);
  auto restored = WsafTable::load(path_);
  const auto key = key_n(5);
  const auto before = restored.lookup(key, key.hash(kSeed))->packets;
  restored.accumulate(key, key.hash(kSeed), 10.0, 0.0, 99'999);
  EXPECT_DOUBLE_EQ(restored.lookup(key, key.hash(kSeed))->packets, before + 10.0);
}

TEST_F(WsafSnapshotTest, EmptyTableRoundTrips) {
  WsafConfig config;
  config.log2_entries = 6;
  const WsafTable table{config};
  table.save(path_);
  const auto restored = WsafTable::load(path_);
  EXPECT_EQ(restored.occupancy(), 0u);
  EXPECT_EQ(restored.config().log2_entries, 6u);
}

TEST_F(WsafSnapshotTest, MissingFileThrows) {
  EXPECT_THROW((void)WsafTable::load("/nonexistent/wsaf.bin"),
               std::runtime_error);
}

TEST_F(WsafSnapshotTest, CorruptMagicThrows) {
  {
    std::ofstream out{path_, std::ios::binary};
    const char garbage[64] = "NOTAWSAFSNAPSHOT";
    out.write(garbage, sizeof garbage);
  }
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, TruncatedBodyThrows) {
  populated_table().save(path_);
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 16);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, TruncatedBucketedBodyThrows) {
  // "Truncated metadata" in the bucketed format: since tags are rebuilt
  // from records, truncation surfaces as a short record stream — load()
  // must diagnose, never crash or restore a partial bitmap silently.
  populated_table(WsafLayout::kBucketed).save(path_);
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 16);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, TruncatedV2HeaderThrows) {
  {
    std::ofstream out{path_, std::ios::binary};
    out.write("IMWSAF02\x0a\x00", 10);  // magic + 2 bytes of a 48-byte header
  }
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

// --- Corrupt-content tests -------------------------------------------------
// These patch bytes of a snapshot written by save() at known offsets of the
// v2 on-disk layout: 48-byte header (magic "IMWSAF02" @0, log2_entries u32
// @8, probe_limit u32 @12, layout u32 @16, reserved u32 @20, idle_timeout
// u64 @24, seed u64 @32, occupied u64 @40), then one 64-byte record per
// occupied slot: slot u64 @+0, src_ip u32 @+8, dst_ip u32 @+12, src_port
// u16 @+16, dst_port u16 @+18, proto u8 @+20, referenced u8 @+21, flow_id
// u32 @+24, packets f64 @+32, bytes f64 @+40, first_seen u64 @+48,
// last_update u64 @+56.

constexpr std::streamoff kHeaderBytes = 48;
constexpr std::streamoff kLog2Offset = 8;
constexpr std::streamoff kProbeLimitOffset = 12;
constexpr std::streamoff kLayoutOffset = 16;
constexpr std::streamoff kReservedOffset = 20;
constexpr std::streamoff kOccupiedOffset = 40;
constexpr std::streamoff kRecordBytes = 64;
constexpr std::streamoff kRecFlowIdOffset = 24;

template <typename T>
void patch_file(const std::string& path, std::streamoff offset, T value) {
  std::fstream f{path, std::ios::binary | std::ios::in | std::ios::out};
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof value);
  ASSERT_TRUE(f.good());
}

template <typename T>
T read_at(const std::string& path, std::streamoff offset) {
  std::ifstream f{path, std::ios::binary};
  f.seekg(offset);
  T value{};
  f.read(reinterpret_cast<char*>(&value), sizeof value);
  return value;
}

netio::FlowKey record_key_at(const std::string& path, std::streamoff record) {
  const auto base = kHeaderBytes + record * kRecordBytes;
  return netio::FlowKey{read_at<std::uint32_t>(path, base + 8),
                        read_at<std::uint32_t>(path, base + 12),
                        read_at<std::uint16_t>(path, base + 16),
                        read_at<std::uint16_t>(path, base + 18),
                        read_at<std::uint8_t>(path, base + 20)};
}

TEST_F(WsafSnapshotTest, LayoutMatchesPatchOffsets) {
  // Guard for the tests below: if the snapshot format ever changes shape,
  // fail here with a clear message instead of in a byte-patching test.
  const auto table = populated_table(WsafLayout::kBucketed);
  table.save(path_);
  ASSERT_EQ(std::filesystem::file_size(path_),
            static_cast<std::uintmax_t>(
                kHeaderBytes + kRecordBytes *
                                   static_cast<std::streamoff>(
                                       table.occupancy())));
  char magic[9] = {};
  std::ifstream{path_, std::ios::binary}.read(magic, 8);
  EXPECT_STREQ(magic, "IMWSAF02");
  EXPECT_EQ(read_at<std::uint32_t>(path_, kLog2Offset),
            table.config().log2_entries);
  EXPECT_EQ(read_at<std::uint32_t>(path_, kProbeLimitOffset),
            table.config().probe_limit);
  EXPECT_EQ(read_at<std::uint32_t>(path_, kLayoutOffset),
            static_cast<std::uint32_t>(WsafLayout::kBucketed));
  EXPECT_EQ(read_at<std::uint32_t>(path_, kReservedOffset), 0u);
  EXPECT_EQ(read_at<std::uint64_t>(path_, kOccupiedOffset), table.occupancy());
  // Record-shape guard: the first record's flow_id must equal the id32 of
  // the key rebuilt from the record's own tuple fields — pinning every
  // field offset the record-patching tests below rely on.
  EXPECT_EQ(read_at<std::uint32_t>(path_, kHeaderBytes + kRecFlowIdOffset),
            record_key_at(path_, 0).id32(table.config().seed));
}

TEST_F(WsafSnapshotTest, ZeroProbeLimitHeaderThrows) {
  // A restored table with probe_limit == 0 would probe zero slots: every
  // lookup misses and every accumulate silently drops. Reject at load.
  populated_table().save(path_);
  patch_file<std::uint32_t>(path_, kProbeLimitOffset, 0);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, ProbeLimitBeyondTableSizeThrowsNamingBoth) {
  // Every accumulate walks the whole probe window, so a header claiming
  // 2^32-1 probes over 2^10 slots restored a table whose first accumulate
  // took seconds. A window may cover the table, never exceed it.
  populated_table().save(path_);
  patch_file<std::uint32_t>(path_, kProbeLimitOffset, 1024);
  EXPECT_EQ(WsafTable::load(path_).config().probe_limit, 1024u);
  patch_file<std::uint32_t>(path_, kProbeLimitOffset, 0xffffffffU);
  try {
    (void)WsafTable::load(path_);
    ADD_FAILURE() << "a probe_limit beyond the table size loaded";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("probe_limit (4294967295)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1024 slots"), std::string::npos) << msg;
  }
}

TEST_F(WsafSnapshotTest, OccupiedBeyondCapacityThrows) {
  // header.occupied > 2^log2_entries cannot describe any real table; a
  // loader trusting it would read past the record stream.
  populated_table().save(path_);
  patch_file<std::uint64_t>(path_, kOccupiedOffset,
                            (std::uint64_t{1} << 10) + 1);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, UnknownLayoutThrows) {
  populated_table().save(path_);
  patch_file<std::uint32_t>(path_, kLayoutOffset, 7);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, BucketedBadBucketCountThrows) {
  // A bucketed header claiming a sub-bucket table (log2_entries < 4) has
  // no valid bucket count; restoring it would index an empty bucket array.
  populated_table(WsafLayout::kBucketed).save(path_);
  patch_file<std::uint32_t>(path_, kLog2Offset, 2);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, RecordFlowIdKeyMismatchThrows) {
  // v2 records are cross-checked: a flow_id that does not match the
  // record's own key (here: bit-flipped) means the key or id bytes were
  // corrupted — and in the bucketed layout the rebuilt fingerprint tag
  // would make the entry unfindable. One-line diagnostic, no crash.
  for (const auto layout :
       {WsafLayout::kScalarProbe, WsafLayout::kBucketed}) {
    populated_table(layout).save(path_);
    const auto good =
        read_at<std::uint32_t>(path_, kHeaderBytes + kRecFlowIdOffset);
    patch_file<std::uint32_t>(path_, kHeaderBytes + kRecFlowIdOffset, ~good);
    EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error)
        << to_string(layout);
  }
}

TEST_F(WsafSnapshotTest, RecordSlotOutsideProbeWindowThrows) {
  // A v2 record whose slot its own key cannot reach is corrupt: the entry
  // would be resident yet unreachable by every probe sequence.
  const auto table = populated_table();
  table.save(path_);
  const auto key = record_key_at(path_, 0);
  const auto hash = key.hash(table.config().seed);
  // Find a slot outside the key's 8-step triangular window.
  const std::uint64_t mask = table.config().entries() - 1;
  std::uint64_t unreachable = 0;
  for (std::uint64_t s = 0; s < table.config().entries(); ++s) {
    bool reachable = false;
    for (unsigned i = 0; i < table.config().probe_limit && !reachable; ++i) {
      reachable = ((hash & mask) + i * (i + 1) / 2) % (mask + 1) == s;
    }
    if (!reachable) {
      unreachable = s;
      break;
    }
  }
  patch_file<std::uint64_t>(path_, kHeaderBytes, unreachable);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, DuplicateSlotThrows) {
  // Two records claiming the same slot: the second overwrite would silently
  // drop the first flow's counters, so load() must refuse.
  const auto table = populated_table();
  ASSERT_GE(table.occupancy(), 2u);
  table.save(path_);
  const auto first_slot = read_at<std::uint64_t>(path_, kHeaderBytes);
  patch_file<std::uint64_t>(path_, kHeaderBytes + kRecordBytes, first_slot);
  EXPECT_THROW((void)WsafTable::load(path_), std::runtime_error);
}

TEST_F(WsafSnapshotTest, OccupancyCountsRestoredRecordsNotHeaderClaim) {
  // If the header under-reports (claims fewer records than the file holds),
  // load() restores exactly that many and occupancy() reflects the records
  // actually placed — never the raw header value.
  const auto table = populated_table();
  table.save(path_);
  const auto claimed = table.occupancy() - 5;
  patch_file<std::uint64_t>(path_, kOccupiedOffset,
                            static_cast<std::uint64_t>(claimed));
  const auto restored = WsafTable::load(path_);
  EXPECT_EQ(restored.occupancy(), claimed);
}

TEST_F(WsafSnapshotTest, InFlightResizeSnapshotRejectedByName) {
  // The retired online resize saved mid-migration snapshots: header
  // reserved = log2 of the region being drained, that region's records
  // appended with slot bit 63. Hand-build one (a 2^10 table draining a
  // 2^9 region, one flow still in the old region, at its home slot) and
  // expect a one-line rejection naming the field, not a migration
  // silently completed at load.
  const auto table = populated_table();
  table.save(path_);
  const auto key = key_n(500);
  const std::uint64_t old_slot =
      (key.hash(kSeed) & ((1U << 9) - 1)) | (std::uint64_t{1} << 63);
  const std::uint32_t flow_id = key.id32(kSeed);
  const double packets = 3.0, bytes = 192.0;
  const std::uint64_t seen_ns = 5'000;
  std::array<char, kRecordBytes> rec{};
  std::memcpy(rec.data() + 0, &old_slot, sizeof old_slot);
  std::memcpy(rec.data() + 8, &key.src_ip, sizeof key.src_ip);
  std::memcpy(rec.data() + 12, &key.dst_ip, sizeof key.dst_ip);
  std::memcpy(rec.data() + 16, &key.src_port, sizeof key.src_port);
  std::memcpy(rec.data() + 18, &key.dst_port, sizeof key.dst_port);
  std::memcpy(rec.data() + 20, &key.proto, sizeof key.proto);
  std::memcpy(rec.data() + kRecFlowIdOffset, &flow_id, sizeof flow_id);
  std::memcpy(rec.data() + 32, &packets, sizeof packets);
  std::memcpy(rec.data() + 40, &bytes, sizeof bytes);
  std::memcpy(rec.data() + 48, &seen_ns, sizeof seen_ns);
  std::memcpy(rec.data() + 56, &seen_ns, sizeof seen_ns);
  {
    std::ofstream out{path_, std::ios::binary | std::ios::app};
    out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  }
  patch_file<std::uint32_t>(path_, kReservedOffset, 9);
  patch_file<std::uint64_t>(
      path_, kOccupiedOffset,
      static_cast<std::uint64_t>(table.occupancy()) + 1);
  try {
    (void)WsafTable::load(path_);
    ADD_FAILURE() << "an in-flight-resize snapshot loaded";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("reserved field is 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("in-flight resize"), std::string::npos) << msg;
  }
}

// --- Legacy (v1) rejection --------------------------------------------------
// v1 snapshots ("IMWSAF01") predate the layout field and the per-record
// checks: a 40-byte header (magic @0, log2_entries u32 @8, probe_limit u32
// @12, idle_timeout u64 @16, seed u64 @24, occupied u64 @32) followed by
// 64-byte records. load() rejects them by name at the magic.

// A v1 header for a 2^6-slot, probe-8 table claiming `occupied` records,
// followed by `record_bytes` zero bytes of record body.
std::vector<char> v1_snapshot_bytes(std::uint64_t occupied,
                                    std::size_t record_bytes) {
  std::vector<char> buf(40 + record_bytes, 0);
  std::memcpy(buf.data(), "IMWSAF01", 8);
  const std::uint32_t log2_entries = 6, probe_limit = 8;
  std::memcpy(buf.data() + 8, &log2_entries, sizeof log2_entries);
  std::memcpy(buf.data() + 12, &probe_limit, sizeof probe_limit);
  std::memcpy(buf.data() + 24, &kSeed, sizeof kSeed);
  std::memcpy(buf.data() + 32, &occupied, sizeof occupied);
  return buf;
}

void expect_rejected_as_v1(const std::string& path,
                           const std::vector<char>& bytes) {
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)WsafTable::load(path);
    ADD_FAILURE() << "a v1 snapshot loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("IMWSAF01"), std::string::npos)
        << e.what();
  }
}

TEST_F(WsafSnapshotTest, LegacyV1SnapshotRejectedByName) {
  // An empty but well-formed v1 table — one the old reader restored.
  expect_rejected_as_v1(path_, v1_snapshot_bytes(0, 0));
}

TEST_F(WsafSnapshotTest, LegacyV1TruncatedThrows) {
  // Two records claimed, the second cut 10 bytes short.
  expect_rejected_as_v1(path_, v1_snapshot_bytes(2, 2 * 64 - 10));
}

TEST_F(WsafSnapshotTest, SaveAlwaysWritesV2) {
  for (const auto layout : {WsafLayout::kScalarProbe, WsafLayout::kBucketed}) {
    const auto table = populated_table(layout);
    table.save(path_);
    char magic[9] = {};
    std::ifstream{path_, std::ios::binary}.read(magic, 8);
    EXPECT_STREQ(magic, "IMWSAF02");
    EXPECT_EQ(WsafTable::load(path_).occupancy(), table.occupancy());
  }
}

}  // namespace
}  // namespace instameasure::core
