// Simulated measurement-plane network channel.
//
// The conventional architecture the paper argues against ships sketches to
// a remote collector; its detection latency is epoch + network delay. This
// channel models that hop: messages are delivered at
// send_time + delay (+ deterministic jitter), in delivery-time order, and
// a configured fraction of them is lost.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace instameasure::delegation {

struct ChannelConfig {
  double delay_ms = 20.0;
  double jitter_ms = 0.0;        ///< uniform in [0, jitter_ms)
  double loss_rate = 0.0;        ///< fraction of messages dropped
  std::uint64_t seed = 0xc4a7;
};

/// FIFO-by-delivery-time channel carrying opaque payloads of type T.
template <typename T>
class SimulatedChannel {
 public:
  explicit SimulatedChannel(const ChannelConfig& config)
      : config_(config), rng_(config.seed) {}

  /// Send a payload at `send_ns`. Returns the delivery time (or nullopt if
  /// the message was lost).
  std::optional<std::uint64_t> send(std::uint64_t send_ns, T payload) {
    ++sent_;
    if (config_.loss_rate > 0 && rng_.next_double() < config_.loss_rate) {
      ++lost_;
      return std::nullopt;
    }
    double extra_ms = config_.delay_ms;
    if (config_.jitter_ms > 0) {
      extra_ms += rng_.next_double() * config_.jitter_ms;
    }
    const auto deliver_ns =
        send_ns + static_cast<std::uint64_t>(extra_ms * 1e6);
    inflight_.push_back(Message{deliver_ns, seq_++, std::move(payload)});
    std::push_heap(inflight_.begin(), inflight_.end(), Later{});
    return deliver_ns;
  }

  /// Pop every message delivered by `now_ns`, in delivery order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, T>> deliver_until(
      std::uint64_t now_ns) {
    std::vector<std::pair<std::uint64_t, T>> out;
    while (!inflight_.empty() && inflight_.front().deliver_ns <= now_ns) {
      // pop_heap moves the minimum to the back, where it is a mutable
      // element we can move the payload out of — no const_cast needed.
      std::pop_heap(inflight_.begin(), inflight_.end(), Later{});
      Message& msg = inflight_.back();
      out.emplace_back(msg.deliver_ns, std::move(msg.payload));
      inflight_.pop_back();
    }
    return out;
  }

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size();
  }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }

 private:
  struct Message {
    std::uint64_t deliver_ns;
    std::uint64_t seq;  // tie-break so delivery order is deterministic
    T payload;
  };
  /// Heap comparator: true when a delivers later than b, making
  /// inflight_.front() the earliest pending message (min-heap).
  struct Later {
    [[nodiscard]] bool operator()(const Message& a,
                                  const Message& b) const noexcept {
      return a.deliver_ns != b.deliver_ns ? a.deliver_ns > b.deliver_ns
                                          : a.seq > b.seq;
    }
  };

  ChannelConfig config_;
  util::Xoshiro256ss rng_;
  std::vector<Message> inflight_;  // binary min-heap ordered by Later
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace instameasure::delegation
