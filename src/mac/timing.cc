#include "mac/timing.h"

#include <algorithm>

namespace skyferry::mac {

int MacTiming::cw_for_stage(int stage) const noexcept {
  long cw = cw_min;
  for (int i = 0; i < stage; ++i) {
    cw = cw * 2 + 1;
    if (cw >= cw_max) return cw_max;
  }
  return static_cast<int>(std::min<long>(cw, cw_max));
}

double MacTiming::mean_backoff_s(int stage) const noexcept {
  return slot_s * static_cast<double>(cw_for_stage(stage)) / 2.0;
}

double block_ack_duration_s(phy::ChannelWidth w) noexcept {
  // Compressed BlockAck MPDU: 32 bytes, basic MCS0, long GI.
  return phy::frame_duration_s(phy::mcs(0), w, phy::GuardInterval::kLong800ns, 32 * 8);
}

}  // namespace skyferry::mac
