#include "uav/battery.h"

#include <algorithm>
#include <cmath>

namespace skyferry::uav {

Battery::Battery(const PlatformSpec& spec) noexcept : spec_(spec) {}

double Battery::drain_factor(double speed_mps) const noexcept {
  const double cruise = std::max(spec_.cruise_speed_mps, 0.1);
  const double rel = speed_mps / cruise;
  if (spec_.kind == PlatformKind::kQuadrocopter) {
    // Rotorcraft: induced power dominates at hover (baseline 0.8 of
    // cruise drain) and parasitic drag grows with v^2.
    return 0.8 + 0.2 * rel * rel;
  }
  // Fixed-wing: near-constant around cruise, rising with v^2 above it.
  return 0.6 + 0.4 * rel * rel;
}

void Battery::drain(double dt_s, double speed_mps) noexcept {
  const double rate = drain_factor(speed_mps) / std::max(spec_.battery_autonomy_s, 1.0);
  soc_ = std::max(0.0, soc_ - rate * dt_s);
}

}  // namespace skyferry::uav
