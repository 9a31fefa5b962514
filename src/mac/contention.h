// Multi-station DCF contention analysis (Bianchi's model). In a real
// SAR deployment several UAV pairs share channel 40; this module answers
// how much of the single-link throughput each of n saturated contenders
// keeps, which the mission planner needs when co-locating rendezvous.
#pragma once

#include "mac/timing.h"

namespace skyferry::mac {

struct ContentionResult {
  int stations{1};
  double tau{0.0};                 ///< per-slot transmission probability
  double collision_probability{0.0};  ///< conditional collision prob p
  /// Fraction of airtime carrying successful payload relative to a
  /// single station with no contention (1.0 at n=1).
  double efficiency_vs_single{1.0};
};

/// Solve Bianchi's fixed point for n saturated stations with the given
/// CW parameters and retry limit, then evaluate the normalized
/// throughput relative to the single-station case, using the supplied
/// frame airtime (seconds) for payload, collision and idle accounting.
[[nodiscard]] ContentionResult analyze_contention(int stations, const MacTiming& timing,
                                                  double frame_airtime_s,
                                                  double ack_airtime_s) noexcept;

}  // namespace skyferry::mac
