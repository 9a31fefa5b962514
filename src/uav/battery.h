// Battery / endurance model. Table 1 gives autonomy at cruise; drain
// scales with commanded speed (quadratic aerodynamic term) and hovering
// still burns power on rotorcraft.
#pragma once

#include "uav/platform.h"

namespace skyferry::uav {

class Battery {
 public:
  explicit Battery(const PlatformSpec& spec) noexcept;

  /// Drain for `dt_s` seconds at `speed_mps`. State of charge saturates at 0.
  void drain(double dt_s, double speed_mps) noexcept;

  /// Remaining state of charge in [0,1].
  [[nodiscard]] double soc() const noexcept { return soc_; }
  [[nodiscard]] bool depleted() const noexcept { return soc_ <= 0.0; }

  /// Relative drain rate at a speed (1.0 at cruise).
  [[nodiscard]] double drain_factor(double speed_mps) const noexcept;

 private:
  PlatformSpec spec_;
  double soc_{1.0};
};

}  // namespace skyferry::uav
