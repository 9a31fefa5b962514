// Selective-repeat ARQ for end-to-end batch delivery.
//
// The MAC's Block ACK recovers per-hop losses, but the mission needs a
// transport-level guarantee that every image datagram eventually lands
// (a half-delivered image is useless to the rescuers). This is a
// windowed selective-repeat layer over the datagram link: the sender
// streams the batch, the receiver returns selective-ack bitmaps, and
// gaps are retransmitted until the batch completes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"

namespace skyferry::net {

/// Selective acknowledgment: everything below `cumulative` received,
/// plus the bitmap for the window starting there.
struct SelectiveAck {
  std::uint32_t cumulative{0};
  std::vector<bool> window_bitmap;
};

struct ArqConfig {
  std::uint32_t window{64};          ///< max unacked packets in flight
  std::uint32_t datagram_bytes{1470};
  /// Receiver emits an ack every this many delivered packets.
  std::uint32_t ack_every{16};
};

/// Frozen sender-side transfer progress: which packets the peer has
/// confirmed. Packets in flight at checkpoint time are *not* recorded as
/// such — a restore treats them as lost (the crash/outage that forced the
/// checkpoint also killed whatever was in the air).
struct ArqSenderState {
  std::uint32_t total{0};
  std::vector<bool> acked;
  /// Highest sequence ever handed to the link plus one; packets at or
  /// beyond it were never sent and resume as fresh transmissions.
  std::uint32_t frontier{0};
  std::uint64_t transmissions{0};
  std::uint64_t retransmissions{0};
};

/// Frozen receiver-side state: the received bitmap plus counters.
struct ArqReceiverState {
  std::uint32_t total{0};
  std::vector<bool> received;
  std::uint64_t duplicates{0};
};

/// Per-packet cost is O(window), not O(batch): the sender keeps its
/// in-flight count as a counter, and every walk over sequence numbers
/// starts at the selective-repeat window base instead of at 0. The
/// invariants behind it:
///   - `in_flight_` equals the number of kInFlight states;
///   - every sequence below `base_` is kAcked (the acked prefix);
///   - no sequence below `nack_lo_` is kNacked;
///   - every kInFlight or kNacked sequence lies below `next_new_`.
/// The packet sequence, the counters and checkpoint() are exactly those
/// of a sender that scans the whole batch from 0.
class ArqSender {
 public:
  /// A batch of `total_packets` datagrams, each `cfg.datagram_bytes`.
  ArqSender(ArqConfig cfg, std::uint32_t total_packets, FlowId flow = 0) noexcept;

  /// Next packet to transmit, if the window allows: retransmissions of
  /// known gaps first, then new data. Returns nullopt when the window is
  /// full or the batch is fully acked.
  std::optional<Packet> next_packet(double now_s);

  /// Process a selective ack from the receiver.
  void on_ack(const SelectiveAck& ack);

  /// Ack-progress stall: declare everything in flight lost so it is
  /// retransmitted (a selective-repeat retransmission timer).
  void on_timeout() noexcept;

  /// Snapshot the resumable part of the transfer (acked set + counters).
  [[nodiscard]] ArqSenderState checkpoint() const;

  /// Rebuild a sender mid-batch from a checkpoint: acked packets stay
  /// acked, everything else (including the in-flight set at checkpoint
  /// time) becomes eligible for (re)transmission.
  static ArqSender resume(ArqConfig cfg, const ArqSenderState& st, FlowId flow = 0);

  [[nodiscard]] bool complete() const noexcept;
  [[nodiscard]] std::uint32_t total_packets() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t transmissions() const noexcept { return transmissions_; }
  [[nodiscard]] std::uint64_t retransmissions() const noexcept { return retransmissions_; }
  [[nodiscard]] std::uint32_t in_flight() const noexcept { return in_flight_; }

 private:
  enum class State : std::uint8_t { kUnsent, kInFlight, kAcked, kNacked };

  /// Mark `seq` acked (counted once per transition into kAcked).
  void ack_one(std::uint32_t seq) noexcept;
  /// Move `base_` past the acked prefix.
  void advance_base() noexcept;

  ArqConfig cfg_;
  std::uint32_t total_;
  FlowId flow_;
  std::vector<State> state_;
  std::uint32_t next_new_{0};
  std::uint32_t acked_count_{0};
  std::uint32_t in_flight_{0};
  std::uint32_t base_{0};     ///< first sequence not known to be acked
  std::uint32_t nack_lo_{0};  ///< lower bound on the lowest kNacked sequence
  std::uint64_t transmissions_{0};
  std::uint64_t retransmissions_{0};
};

class ArqReceiver {
 public:
  explicit ArqReceiver(ArqConfig cfg, std::uint32_t total_packets) noexcept;

  /// Record a delivered packet; returns an ack to send back when due.
  std::optional<SelectiveAck> on_packet(const Packet& p);

  /// Force an ack (receiver timer).
  [[nodiscard]] SelectiveAck make_ack() const;

  /// Snapshot / rebuild for resumable transfers (mirrors ArqSender).
  [[nodiscard]] ArqReceiverState checkpoint() const;
  static ArqReceiver resume(ArqConfig cfg, const ArqReceiverState& st);

  [[nodiscard]] bool complete() const noexcept { return received_count_ == total_; }
  [[nodiscard]] std::uint32_t received_count() const noexcept { return received_count_; }
  /// Application bytes landed so far (partial delivery is real delivery).
  [[nodiscard]] double delivered_bytes() const noexcept {
    return static_cast<double>(received_count_) * static_cast<double>(cfg_.datagram_bytes);
  }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }

 private:
  ArqConfig cfg_;
  std::uint32_t total_;
  std::vector<bool> received_;
  std::uint32_t cumulative_{0};
  std::uint32_t received_count_{0};
  std::uint32_t since_ack_{0};
  std::uint64_t duplicates_{0};
};

}  // namespace skyferry::net
