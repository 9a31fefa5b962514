// IEEE 802.11n MAC timing constants (5 GHz / OFDM PHY) and DCF math.
#pragma once

#include "phy/mcs.h"

namespace skyferry::mac {

/// 802.11 OFDM (5 GHz) timing parameters.
struct MacTiming {
  double slot_s{9e-6};
  double sifs_s{16e-6};
  int cw_min{15};
  int cw_max{1023};
  int retry_limit{7};

  [[nodiscard]] double difs_s() const noexcept { return sifs_s + 2.0 * slot_s; }

  /// Expected backoff duration [s] for retry stage `stage` (0-based):
  /// mean of U[0, CW] slots with CW = min((cw_min+1)*2^stage - 1, cw_max).
  [[nodiscard]] double mean_backoff_s(int stage) const noexcept;

  /// Contention-window size for a retry stage.
  [[nodiscard]] int cw_for_stage(int stage) const noexcept;
};

/// Duration [s] of a compressed Block ACK frame (32 bytes) sent at the
/// basic rate (we use MCS0 of the operating width, long GI, as drivers do).
[[nodiscard]] double block_ack_duration_s(phy::ChannelWidth w) noexcept;

}  // namespace skyferry::mac
