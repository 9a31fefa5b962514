#include "net/flow.h"

#include <algorithm>

namespace skyferry::net {

void FlowSink::deliver(const Packet& p, double now_s) {
  if (p.seq >= seen_.size()) seen_.resize(p.seq + 1, false);
  if (seen_[p.seq]) {
    ++dup_;
    return;
  }
  seen_[p.seq] = true;
  ++unique_;
  bytes_ += p.payload_bytes;
  high_seq_ = std::max(high_seq_, p.seq + 1);
  last_t_ = now_s;
}

std::uint32_t FlowSink::complete_images(std::uint32_t packets_per_image) const noexcept {
  if (packets_per_image == 0) return 0;
  std::uint32_t complete = 0;
  std::uint32_t run = 0;
  std::uint32_t idx = 0;
  for (std::uint32_t s = 0; s < high_seq_; ++s) {
    if (seen_[s]) {
      ++run;
    }
    ++idx;
    if (idx == packets_per_image) {
      if (run == packets_per_image) ++complete;
      run = 0;
      idx = 0;
    }
  }
  return complete;
}

}  // namespace skyferry::net
