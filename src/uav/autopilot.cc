#include "uav/autopilot.h"

#include <cmath>

namespace skyferry::uav {

Autopilot::Autopilot(const PlatformSpec& spec) noexcept : spec_(spec) {}

void Autopilot::add_waypoint(const Waypoint& wp) {
  plan_.push_back(wp);
  if (phase_ == AutopilotPhase::kIdle) {
    current_ = plan_.front();
    plan_.pop_front();
    phase_ = AutopilotPhase::kEnroute;
  }
}

void Autopilot::set_plan(std::deque<Waypoint> plan) {
  plan_ = std::move(plan);
  current_.reset();
  phase_ = AutopilotPhase::kIdle;
  if (!plan_.empty()) {
    current_ = plan_.front();
    plan_.pop_front();
    phase_ = AutopilotPhase::kEnroute;
  }
}

VelocityCommand Autopilot::command_towards(const KinematicState& s,
                                           const Waypoint& wp) const noexcept {
  const geo::Vec3 to_wp = wp.pos - s.pos;
  const double dist = to_wp.norm();
  double speed = wp.speed_mps > 0.0 ? wp.speed_mps : spec_.cruise_speed_mps;
  // Rotorcraft decelerate into the waypoint; fixed-wing keep speed up.
  if (spec_.can_hover && dist < 2.0 * speed) speed = std::max(dist / 2.0, 0.5);
  if (dist < 1e-9) return {geo::Vec3{}};
  return {to_wp.normalized() * speed};
}

VelocityCommand Autopilot::loiter_command(const KinematicState& s,
                                          const Waypoint& wp) const noexcept {
  if (spec_.can_hover) {
    // Position hold: proportional station-keeping so wind and drift are
    // actively rejected rather than integrated.
    const geo::Vec3 err = wp.pos - s.pos;
    return {err * 0.5};
  }

  // Fixed-wing loiter: fly a circle of the minimum turn radius around the
  // waypoint. Command the tangential direction, with a radial correction
  // to converge onto the circle.
  const double r = std::max(spec_.min_turn_radius_m, 1.0);
  geo::Vec3 radial = s.pos - wp.pos;
  radial.z = 0.0;
  const double rho = radial.horizontal_norm();
  const double speed = spec_.cruise_speed_mps;
  geo::Vec3 rad_dir = (rho > 1e-6) ? radial / rho : geo::Vec3{1.0, 0.0, 0.0};
  // Tangent (counter-clockwise) + proportional radial convergence.
  const geo::Vec3 tangent{-rad_dir.y, rad_dir.x, 0.0};
  const double radial_err = r - rho;  // >0: too close, push outwards
  geo::Vec3 dir = tangent + rad_dir * (radial_err * 0.1);
  dir.z = (wp.pos.z - s.pos.z) * 0.2;
  return {dir.normalized() * speed};
}

VelocityCommand Autopilot::update(const KinematicState& s, double t_s, double dt_s) {
  (void)dt_s;
  if (!current_) {
    phase_ = AutopilotPhase::kIdle;
    // Fixed-wing cannot stop even with no plan: keep flying straight.
    if (!spec_.can_hover && s.vel.norm() > 1e-6) {
      return {s.vel.normalized() * spec_.cruise_speed_mps};
    }
    return {geo::Vec3{}};
  }

  const Waypoint& wp = *current_;
  const double dist = geo::distance(s.pos, wp.pos);
  // Airplanes count a waypoint reached when inside the loiter circle.
  const double accept = spec_.can_hover
                            ? wp.accept_radius_m
                            : std::max(wp.accept_radius_m, spec_.min_turn_radius_m * 1.2);

  switch (phase_) {
    case AutopilotPhase::kEnroute:
      if (dist <= accept) {
        phase_ = AutopilotPhase::kHolding;
        hold_forever_ = wp.hold_s < 0.0;
        hold_until_ = t_s + wp.hold_s;
        return loiter_command(s, wp);
      }
      return command_towards(s, wp);

    case AutopilotPhase::kHolding:
      if (!hold_forever_ && t_s >= hold_until_) {
        current_.reset();
        if (!plan_.empty()) {
          current_ = plan_.front();
          plan_.pop_front();
          phase_ = AutopilotPhase::kEnroute;
          return command_towards(s, *current_);
        }
        phase_ = AutopilotPhase::kIdle;
        if (!spec_.can_hover) return loiter_command(s, wp);
        return {geo::Vec3{}};
      }
      return loiter_command(s, wp);

    case AutopilotPhase::kIdle:
      break;
  }
  return {geo::Vec3{}};
}

}  // namespace skyferry::uav
