// Waypoint autopilot. Mirrors the paper's field configuration: airplanes
// shuttle between waypoints and "circle with a radius of at least 20 m"
// to mimic hovering; quadrocopters fly to a waypoint and hold position.
#pragma once

#include <deque>
#include <optional>

#include "geo/vec3.h"
#include "uav/kinematics.h"
#include "uav/platform.h"

namespace skyferry::uav {

/// A navigation target with an arrival tolerance and an optional hold.
struct Waypoint {
  geo::Vec3 pos;
  double speed_mps{0.0};      ///< 0 = platform cruise speed
  double accept_radius_m{5.0};
  double hold_s{0.0};         ///< loiter/hover duration after arrival
};

enum class AutopilotPhase { kIdle, kEnroute, kHolding };

/// Generates velocity commands to fly a waypoint queue.
class Autopilot {
 public:
  explicit Autopilot(const PlatformSpec& spec) noexcept;

  /// Append a waypoint to the flight plan.
  void add_waypoint(const Waypoint& wp);

  /// Replace the flight plan (drops any current hold).
  void set_plan(std::deque<Waypoint> plan);

  /// Compute the command for the current state at time t; advances the
  /// internal phase machine (arrival detection, hold timers).
  [[nodiscard]] VelocityCommand update(const KinematicState& s, double t_s, double dt_s);

  [[nodiscard]] AutopilotPhase phase() const noexcept { return phase_; }
  [[nodiscard]] std::size_t waypoints_left() const noexcept { return plan_.size(); }
  [[nodiscard]] const std::optional<Waypoint>& current() const noexcept { return current_; }

  /// True while the platform is "at" its waypoint: hovering for quads,
  /// loitering on the minimum circle for airplanes.
  [[nodiscard]] bool is_holding() const noexcept { return phase_ == AutopilotPhase::kHolding; }

 private:
  [[nodiscard]] VelocityCommand command_towards(const KinematicState& s,
                                                const Waypoint& wp) const noexcept;
  [[nodiscard]] VelocityCommand loiter_command(const KinematicState& s,
                                               const Waypoint& wp) const noexcept;

  PlatformSpec spec_;
  std::deque<Waypoint> plan_;
  std::optional<Waypoint> current_;
  AutopilotPhase phase_{AutopilotPhase::kIdle};
  double hold_until_{0.0};
  bool hold_forever_{false};
};

}  // namespace skyferry::uav
