// GPS receiver noise model. The paper's distance input comes from consumer
// GPS units on the autopilot boards; their fixes carry meter-scale errors
// that propagate into the distance estimates used for transmission-timing
// decisions. We model horizontal and vertical error as first-order
// Gauss-Markov processes (slowly wandering bias), which is the standard
// low-cost-receiver approximation.
#pragma once

#include <cstdint>

#include "geo/geodesy.h"
#include "geo/vec3.h"

namespace skyferry::geo {

/// Parameters of the Gauss-Markov GPS error model.
struct GpsNoiseConfig {
  double horizontal_sigma_m{2.0};   ///< steady-state 1-sigma horizontal error
  double vertical_sigma_m{4.0};     ///< steady-state 1-sigma vertical error
  double correlation_time_s{30.0};  ///< error decorrelation time constant
  double update_rate_hz{5.0};       ///< receiver fix rate (consumer units: 1-10 Hz)
};

/// Simulates a GPS receiver: feed true ENU positions, read noisy fixes.
/// Deterministic given the seed; each receiver instance owns its own
/// error state so two UAVs have independent error processes.
class GpsReceiver {
 public:
  GpsReceiver(GpsNoiseConfig cfg, std::uint64_t seed) noexcept;

  /// Advance the error process by `dt_s` and return the noisy measurement
  /// of `true_pos`.
  [[nodiscard]] Vec3 measure(const Vec3& true_pos, double dt_s) noexcept;

  /// Current error vector (for tests / diagnostics).
  [[nodiscard]] const Vec3& error() const noexcept { return err_; }

  [[nodiscard]] const GpsNoiseConfig& config() const noexcept { return cfg_; }

 private:
  /// One draw from N(0,1) using a small, self-contained xorshift-based
  /// generator (keeps geo free of a dependency on sim/rng).
  double gaussian() noexcept;

  GpsNoiseConfig cfg_;
  std::uint64_t state_;
  Vec3 err_{};
  bool has_spare_{false};
  double spare_{0.0};
};

}  // namespace skyferry::geo
