#include "netio/codec.h"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <span>
#include <vector>

namespace instameasure::netio {
namespace {

// gtest names each case by the raw bytes of its CodecCase. The filler bytes
// after `proto` used to be padding, so the names took whatever the stack
// held and changed from build to build; they are now explicit and fixed to
// the names the cases have always been listed under.
struct CodecCase {
  IpProto proto;
  std::array<std::uint8_t, 7> filler;
  std::size_t payload;
};
static_assert(sizeof(CodecCase) == 16, "CodecCase must have no padding");

class CodecRoundTrip
    : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, KeySurvivesEncodeDecode) {
  const auto [proto, filler, payload] = GetParam();
  FlowKey key{0x0A000001, 0xC0A80A02, 12345, 80,
              static_cast<std::uint8_t>(proto)};
  const auto frame = encode_frame(key, payload);
  const auto parsed = decode_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, key);
  EXPECT_EQ(parsed->frame_len, frame.size());
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAndSizes, CodecRoundTrip,
    ::testing::Values(
        CodecCase{IpProto::kTcp, {0x00, 0x01, 0x1B, 0x03, 0x3B, 0x2C, 0x00}, 0},
        CodecCase{IpProto::kTcp, {0xFF, 0x48, 0x00, 0x00, 0x00, 0xD0, 0xEF},
                  100},
        CodecCase{IpProto::kTcp, {}, 1460},
        CodecCase{IpProto::kUdp, {}, 0},
        CodecCase{IpProto::kUdp, {0x00, 0x01, 0x1B, 0x03, 0x1E, 0x09, 0x00},
                  512},
        CodecCase{IpProto::kIcmp, {0xDA, 0x48, 0x00, 0x00, 0x00, 0xD0, 0xCA},
                  0},
        CodecCase{IpProto::kIcmp, {}, 56}));

TEST(Codec, MinimumFrameIs60Bytes) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kUdp)};
  const auto frame = encode_frame(key, 0);
  EXPECT_GE(frame.size(), 60u);
}

TEST(Codec, Ipv4TotalLengthMatchesHeadersPlusPayload) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  const auto frame = encode_frame(key, 100);
  const auto parsed = decode_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip_total_len, kIpv4MinHeaderLen + kTcpMinHeaderLen + 100);
}

TEST(Codec, Ipv4HeaderChecksumValidates) {
  FlowKey key{0xDEADBEEF, 0xCAFEBABE, 1, 2,
              static_cast<std::uint8_t>(IpProto::kTcp)};
  const auto frame = encode_frame(key, 10);
  // Checksum over the IPv4 header including its checksum field must be 0.
  const auto header = std::span{frame}.subspan(kEthHeaderLen, kIpv4MinHeaderLen);
  EXPECT_EQ(internet_checksum(header), 0);
}

TEST(Codec, RejectsTruncatedFrame) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  auto frame = encode_frame(key, 0);
  frame.resize(20);
  EXPECT_FALSE(decode_frame(frame).has_value());
}

TEST(Codec, RejectsNonIpv4EtherType) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  auto frame = encode_frame(key, 0);
  frame[12] = std::byte{0x86};  // 0x86dd = IPv6
  frame[13] = std::byte{0xdd};
  EXPECT_FALSE(decode_frame(frame).has_value());
}

TEST(Codec, RejectsUnsupportedProtocol) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  auto frame = encode_frame(key, 0);
  frame[kEthHeaderLen + 9] = std::byte{47};  // GRE
  EXPECT_FALSE(decode_frame(frame).has_value());
}

TEST(Codec, RejectsIpv6VersionNibble) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  auto frame = encode_frame(key, 0);
  frame[kEthHeaderLen] = std::byte{0x65};  // version 6
  EXPECT_FALSE(decode_frame(frame).has_value());
}

// --- IPv4 fragment handling (decode-path bugfix) -------------------------
//
// A non-first fragment (fragment offset != 0) carries no L4 header: the
// bytes where ports would be are mid-stream payload. The old decoder read
// them as ports anyway, shattering one flow into garbage-port keys; now
// such frames become port-0 continuation records with `fragment` set.

/// Set the IPv4 flags+fragment-offset field (byte offsets 6–7 of the IP
/// header). `offset_units` is in 8-byte units; `mf` sets More Fragments.
void set_frag_field(std::vector<std::byte>& frame, std::uint16_t offset_units,
                    bool mf) {
  const std::uint16_t field =
      static_cast<std::uint16_t>((mf ? 0x2000 : 0) | (offset_units & 0x1fff));
  frame[kEthHeaderLen + 6] = std::byte{static_cast<unsigned char>(field >> 8)};
  frame[kEthHeaderLen + 7] = std::byte{static_cast<unsigned char>(field)};
}

TEST(Codec, NonFirstFragmentBecomesPortZeroContinuation) {
  FlowKey key{0x0A000001, 0xC0A80A02, 12345, 80,
              static_cast<std::uint8_t>(IpProto::kTcp)};
  auto frame = encode_frame(key, 64);
  set_frag_field(frame, 185, false);
  const auto parsed = decode_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fragment);
  // Addresses and protocol survive; the payload bytes where ports would
  // be must NOT be read as ports.
  EXPECT_EQ(parsed->key.src_ip, key.src_ip);
  EXPECT_EQ(parsed->key.dst_ip, key.dst_ip);
  EXPECT_EQ(parsed->key.proto, key.proto);
  EXPECT_EQ(parsed->key.src_port, 0);
  EXPECT_EQ(parsed->key.dst_port, 0);
}

TEST(Codec, FirstFragmentKeepsRealPorts) {
  FlowKey key{1, 2, 4242, 443, static_cast<std::uint8_t>(IpProto::kUdp)};
  auto frame = encode_frame(key, 64);
  set_frag_field(frame, 0, true);  // MF set, offset 0: L4 header present
  const auto parsed = decode_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->fragment);
  EXPECT_EQ(parsed->key, key);
}

TEST(Codec, FragmentOfUnsupportedProtocolStillRejected) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  auto frame = encode_frame(key, 64);
  frame[kEthHeaderLen + 9] = std::byte{47};  // GRE
  set_frag_field(frame, 10, false);
  EXPECT_FALSE(decode_frame(frame).has_value());
}

// --- IPv4 total-length validation (decode-path bugfix) -------------------
//
// The total-length field is attacker-controlled and was trusted verbatim;
// a hostile 0xffff would inflate downstream byte accounting ~44x per
// minimum frame. It is now clamped into [IHL, bytes captured].

TEST(Codec, OversizedTotalLengthClampedToCapture) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  auto frame = encode_frame(key, 100);
  frame[kEthHeaderLen + 2] = std::byte{0xff};
  frame[kEthHeaderLen + 3] = std::byte{0xff};
  const auto parsed = decode_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->truncated);
  EXPECT_EQ(parsed->ip_total_len, frame.size() - kEthHeaderLen);
}

TEST(Codec, UndersizedTotalLengthClampedToHeader) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kUdp)};
  auto frame = encode_frame(key, 100);
  frame[kEthHeaderLen + 2] = std::byte{0x00};
  frame[kEthHeaderLen + 3] = std::byte{0x05};  // < minimum header length
  const auto parsed = decode_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->truncated);
  EXPECT_EQ(parsed->ip_total_len, kIpv4MinHeaderLen);
}

TEST(Codec, HonestTotalLengthNotFlaggedTruncated) {
  FlowKey key{1, 2, 3, 4, static_cast<std::uint8_t>(IpProto::kTcp)};
  const auto parsed = decode_frame(encode_frame(key, 100));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->truncated);
}

// --- decode_frame property tests -----------------------------------------

/// Random well-formed frames round-trip encode -> decode exactly.
TEST(CodecProperty, RandomKeysRoundTrip) {
  std::mt19937_64 rng{0xC0DEC};
  constexpr std::uint8_t kProtos[] = {6, 17, 1};
  for (int i = 0; i < 500; ++i) {
    FlowKey key{static_cast<std::uint32_t>(rng()),
                static_cast<std::uint32_t>(rng()),
                static_cast<std::uint16_t>(rng()),
                static_cast<std::uint16_t>(rng()), kProtos[rng() % 3]};
    const auto payload = static_cast<std::size_t>(rng() % 1400);
    const auto vlan = static_cast<std::uint16_t>(rng() % 3 == 0 ? rng() % 4095
                                                                : 0);
    const auto frame = encode_frame(key, payload, vlan);
    const auto parsed = decode_frame(frame);
    ASSERT_TRUE(parsed.has_value()) << "iteration " << i;
    EXPECT_EQ(parsed->key, key) << "iteration " << i;
    EXPECT_FALSE(parsed->fragment);
    EXPECT_FALSE(parsed->truncated);
  }
}

/// Random byte mutations of valid frames never crash the decoder, and
/// whatever it does accept satisfies the ParsedPacket invariants.
TEST(CodecProperty, RandomMutationsNeverCrashAndStaySane) {
  std::mt19937_64 rng{0xFA7A1};
  constexpr std::uint8_t kProtos[] = {6, 17, 1};
  for (int i = 0; i < 2000; ++i) {
    FlowKey key{static_cast<std::uint32_t>(rng()),
                static_cast<std::uint32_t>(rng()),
                static_cast<std::uint16_t>(rng()),
                static_cast<std::uint16_t>(rng()), kProtos[rng() % 3]};
    auto frame = encode_frame(key, static_cast<std::size_t>(rng() % 256),
                              static_cast<std::uint16_t>(
                                  rng() % 4 == 0 ? rng() % 4095 : 0));
    // 1-8 mutations: flipped bytes anywhere, and sometimes a truncation.
    const auto mutations = 1 + rng() % 8;
    for (std::uint64_t m = 0; m < mutations; ++m) {
      frame[rng() % frame.size()] =
          std::byte{static_cast<unsigned char>(rng())};
    }
    if (rng() % 4 == 0) frame.resize(rng() % (frame.size() + 1));
    const auto parsed = decode_frame(frame);
    if (!parsed.has_value()) continue;
    EXPECT_EQ(parsed->frame_len, frame.size()) << "iteration " << i;
    EXPECT_GE(parsed->ip_total_len, kIpv4MinHeaderLen) << "iteration " << i;
    // The clamp invariant: never larger than what was actually captured
    // past the L2 headers (the decoder skips up to two VLAN tags).
    EXPECT_LE(parsed->ip_total_len, frame.size() - kEthHeaderLen)
        << "iteration " << i;
    if (parsed->fragment) {
      EXPECT_EQ(parsed->key.src_port, 0) << "iteration " << i;
      EXPECT_EQ(parsed->key.dst_port, 0) << "iteration " << i;
    }
  }
}

TEST(InternetChecksum, KnownVector) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::array<std::uint8_t, 8> data{0x00, 0x01, 0xf2, 0x03,
                                         0xf4, 0xf5, 0xf6, 0xf7};
  const auto sum = internet_checksum(std::as_bytes(std::span{data}));
  EXPECT_EQ(sum, 0x220d);
}

TEST(InternetChecksum, OddLengthHandled) {
  const std::array<std::uint8_t, 3> data{0xff, 0x00, 0xab};
  // Manual: 0xff00 + 0xab00 = 0x1aa00 -> fold 0xaa01 -> ~ = 0x55fe.
  EXPECT_EQ(internet_checksum(std::as_bytes(std::span{data})), 0x55fe);
}

}  // namespace
}  // namespace instameasure::netio
