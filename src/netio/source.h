// Burst-oriented packet capture abstraction (tentpole of the I/O-plane PR).
//
// The paper feeds InstaMeasure from a DPDK port preloaded with CAIDA
// traces; until this PR the reproduction only replayed in-memory
// PacketVectors. PacketSource is the seam that lets the same engine ingest
// from any of:
//
//   * ReplaySource    — the existing in-memory trace replayer, optionally
//                       paced at a fixed rate or by the records' own
//                       timestamps;
//   * PcapFileSource  — streaming decode of a pcap savefile (no full
//                       PacketVector materialized first);
//   * AfPacketSource  — a live AF_PACKET/TPACKET_V3 mmap ring
//                       (netio/afpacket.h), kernel-drop accounted.
//
// The contract is burst pull: the consumer hands a span of PacketRecord
// slots and the source fills as many as it can without blocking longer
// than its own poll budget. 0 filled means "nothing right now" — check
// exhausted() to distinguish a quiet live port from end-of-stream. Every
// source keeps explicit SourceStats so received / kernel-dropped /
// undecodable traffic is always accounted, never silently vanished.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "netio/packet.h"
#include "netio/pcap.h"

namespace instameasure::netio {

/// Explicit accounting every source maintains. The invariant consumers may
/// rely on: every frame the source ever saw is in exactly one of
/// `received` (delivered as a record), `dropped` (lost before delivery,
/// e.g. in the kernel ring), or `skipped` (seen but not decodable to a
/// record). `fragments` / `truncated` sub-count delivered records that
/// needed the decode-path repairs (they are included in `received`).
struct SourceStats {
  std::uint64_t received = 0;   ///< records handed out via next_burst
  std::uint64_t dropped = 0;    ///< lost upstream (kernel ring, pacing gap)
  std::uint64_t skipped = 0;    ///< frames seen but not decodable (non-IPv4…)
  std::uint64_t fragments = 0;  ///< delivered port-0 fragment continuations
  std::uint64_t truncated = 0;  ///< delivered records with clamped total len
  std::uint64_t bursts = 0;     ///< next_burst calls that delivered >= 1
  std::uint64_t wait_cycles = 0;  ///< empty polls / pacing waits
};

/// Abstract burst capture. Implementations are single-consumer: call
/// next_burst from one thread at a time.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// Fill up to out.size() records; returns how many were written. A
  /// return of 0 means no packets are available right now (live source
  /// between bursts, or end of stream — see exhausted()); implementations
  /// bound their internal wait so a consumer loop stays responsive.
  [[nodiscard]] virtual std::size_t next_burst(
      std::span<PacketRecord> out) = 0;

  /// True once the source can never deliver again (file fully read, replay
  /// finished). Live sources stay false until closed.
  [[nodiscard]] virtual bool exhausted() const noexcept = 0;

  [[nodiscard]] virtual SourceStats stats() const noexcept = 0;

  /// Short machine-usable kind tag: "replay", "pcap", "afpacket".
  [[nodiscard]] virtual const char* kind() const noexcept = 0;
};

/// In-memory trace replayer. Zero-copy of the records themselves (they are
/// copied into the caller's burst span — never into an intermediate
/// PacketVector) with optional pacing. With `pace_pps` > 0 record i is
/// released no earlier than wall_start + i / pace_pps (fixed-rate arrival,
/// the Fig 12 deployment emulation). Otherwise, with `pace_by_timestamps`,
/// each record is released no earlier than
///   wall_start + (rec.timestamp_ns - first.timestamp_ns) / speed,
/// so a 60 s trace replays in 60 s of wall time at speed 1.0 (10x faster
/// at speed 10). Unpaced (the default) it streams at consumer speed.
class ReplaySource final : public PacketSource {
 public:
  struct Config {
    bool pace_by_timestamps = false;
    double speed = 1.0;  ///< timestamp-pacing time compression, finite > 0
    /// Fixed arrival rate in records per wall second, finite >= 0; 0 (the
    /// default) leaves pacing to pace_by_timestamps. Takes precedence.
    double pace_pps = 0;
  };

  /// The records must outlive the source; they are not copied up front.
  explicit ReplaySource(std::span<const PacketRecord> records)
      : ReplaySource(records, Config{}) {}
  /// Throws std::invalid_argument (message names the value) when `speed`
  /// is not finite and > 0, or `pace_pps` is not finite and >= 0.
  ReplaySource(std::span<const PacketRecord> records, Config config);

  [[nodiscard]] std::size_t next_burst(std::span<PacketRecord> out) override;
  [[nodiscard]] bool exhausted() const noexcept override {
    return next_ >= records_.size();
  }
  [[nodiscard]] SourceStats stats() const noexcept override { return stats_; }
  [[nodiscard]] const char* kind() const noexcept override { return "replay"; }

 private:
  std::span<const PacketRecord> records_;
  Config config_;
  std::size_t next_ = 0;
  std::uint64_t wall_start_ns_ = 0;  ///< set on first next_burst
  std::uint64_t trace_start_ns_ = 0;
  SourceStats stats_{};
};

/// Streaming pcap savefile source: frames decode straight into the burst
/// span, so the file never materializes as a PacketVector. Decode-path
/// stats (skipped / fragments / truncated) surface from the reader.
/// Throws std::runtime_error from the constructor on unopenable files and
/// from next_burst on corrupt ones (same contract as PcapReader).
class PcapFileSource final : public PacketSource {
 public:
  explicit PcapFileSource(const std::string& path);

  [[nodiscard]] std::size_t next_burst(std::span<PacketRecord> out) override;
  [[nodiscard]] bool exhausted() const noexcept override { return eof_; }
  [[nodiscard]] SourceStats stats() const noexcept override;
  [[nodiscard]] const char* kind() const noexcept override { return "pcap"; }

 private:
  PcapReader reader_;
  bool eof_ = false;
  SourceStats stats_{};
};

}  // namespace instameasure::netio
