// Traffic sink: FlowSink tracks in-order delivery, duplicates and
// per-image completion of a packetized batch (the paper's Mdata).
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace skyferry::net {

/// Receiver-side accounting.
class FlowSink {
 public:
  /// Record a delivered packet. Duplicates (same seq) are counted but not
  /// double-credited.
  void deliver(const Packet& p, double now_s);

  [[nodiscard]] std::uint64_t unique_packets() const noexcept { return unique_; }
  [[nodiscard]] std::uint64_t duplicate_packets() const noexcept { return dup_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] double last_delivery_t_s() const noexcept { return last_t_; }

  /// Number of images for which every datagram arrived, given the
  /// packets-per-image of the source.
  [[nodiscard]] std::uint32_t complete_images(std::uint32_t packets_per_image) const noexcept;

  /// Highest sequence seen + 1 (0 when nothing arrived).
  [[nodiscard]] std::uint32_t highest_seq_plus_one() const noexcept { return high_seq_; }

 private:
  std::vector<bool> seen_;
  std::uint64_t unique_{0};
  std::uint64_t dup_{0};
  std::uint64_t bytes_{0};
  std::uint32_t high_seq_{0};
  double last_t_{0.0};
};

}  // namespace skyferry::net
