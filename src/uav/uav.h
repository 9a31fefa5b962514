// The UAV entity: platform + kinematics + autopilot + battery + GPS,
// advanced by fixed-step ticks and recording its own flight trace.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "geo/gps.h"
#include "geo/trajectory.h"
#include "uav/autopilot.h"
#include "uav/battery.h"
#include "uav/kinematics.h"
#include "uav/platform.h"

namespace skyferry::uav {

struct UavConfig {
  std::string id{"uav"};
  PlatformSpec platform{PlatformSpec::arducopter()};
  geo::Vec3 start_pos{};
  geo::Vec3 start_vel{};
  geo::GpsNoiseConfig gps{};
  double trace_sample_period_s{0.5};
  /// Optional wind field: world-frame wind vector at time t. The vehicle
  /// flies in the airmass, so its ground track drifts with the wind and
  /// the autopilot has to keep re-aiming.
  std::function<geo::Vec3(double t_s)> wind;
  /// In-flight failure rate [1/m]; 0 disables random failures. When set,
  /// a distance-to-failure is drawn at spawn (exponential, the paper's
  /// model) and the vehicle goes down once the odometer crosses it.
  double failure_rho_per_m{0.0};
};

class Uav {
 public:
  Uav(UavConfig cfg, std::uint64_t seed);

  /// Advance the vehicle by dt (autopilot -> kinematics -> battery -> GPS).
  void tick(double t_s, double dt_s);

  [[nodiscard]] const std::string& id() const noexcept { return cfg_.id; }
  [[nodiscard]] const PlatformSpec& platform() const noexcept { return cfg_.platform; }
  [[nodiscard]] const KinematicState& state() const noexcept { return state_; }
  [[nodiscard]] const geo::Vec3& position() const noexcept { return state_.pos; }
  [[nodiscard]] double speed() const noexcept { return state_.vel.norm(); }
  [[nodiscard]] Autopilot& autopilot() noexcept { return autopilot_; }
  [[nodiscard]] const Autopilot& autopilot() const noexcept { return autopilot_; }
  [[nodiscard]] Battery& battery() noexcept { return battery_; }
  [[nodiscard]] const Battery& battery() const noexcept { return battery_; }
  [[nodiscard]] const geo::Trajectory& trace() const noexcept { return trace_; }
  [[nodiscard]] const geo::Vec3& gps_fix() const noexcept { return last_fix_; }

  /// Odometer: total distance flown [m].
  [[nodiscard]] double distance_flown_m() const noexcept { return odometer_m_; }

  /// True once the vehicle is down: battery depleted or an in-flight
  /// failure struck (odometer crossed the drawn distance-to-failure).
  [[nodiscard]] bool failed() const noexcept;

  /// The drawn distance-to-failure [m] (infinity when failures are off).
  [[nodiscard]] double failure_distance_m() const noexcept { return failure_at_m_; }

  /// Convenience: command a flight to `pos` then hold (hover/loiter)
  /// there. `accept_radius_m` is the arrival tolerance (rendezvous
  /// positioning wants it tight; transit waypoints can be loose).
  void goto_and_hold(const geo::Vec3& pos, double speed_mps = 0.0, double hold_s = -1.0,
                     double accept_radius_m = 3.0);

 private:
  UavConfig cfg_;
  KinematicState state_;
  KinematicLimits limits_;
  Autopilot autopilot_;
  Battery battery_;
  geo::GpsReceiver gps_;
  geo::Trajectory trace_;
  geo::Vec3 last_fix_;
  double odometer_m_{0.0};
  double last_trace_t_{-1e9};
  double failure_at_m_{0.0};
};

}  // namespace skyferry::uav
