// Dubins paths: shortest curvature-bounded paths for fixed-wing flight.
//
// The base model charges Tship = (d0-d)/v as if the ferry could fly a
// straight line, but a fixed-wing airplane leaving its loiter circle and
// arriving on a rendezvous heading is constrained by its minimum turn
// radius (20 m for the Swinglet). Dubins paths give the exact shortest
// path between oriented poses — the honest shipping time the planner
// should charge for airplanes.
#pragma once

#include <array>
#include <optional>

#include "geo/vec3.h"

namespace skyferry::geo {

/// A planar pose: position (x east, y north) and heading [rad, standard
/// math convention: 0 = +x, counterclockwise positive].
struct Pose2 {
  double x{0.0};
  double y{0.0};
  double theta{0.0};
};

enum class DubinsWord { kLSL, kLSR, kRSL, kRSR, kRLR, kLRL };

/// One solved Dubins path: the word and the three segment lengths in
/// *radius-normalized* units (arcs in radians, straights in radii).
struct DubinsPath {
  DubinsWord word{DubinsWord::kLSL};
  std::array<double, 3> lengths{};  // normalized
  double radius{1.0};

  /// Total metric length [m].
  [[nodiscard]] double length_m() const noexcept {
    return (lengths[0] + lengths[1] + lengths[2]) * radius;
  }
};

/// Shortest Dubins path from `from` to `to` with minimum turn radius
/// `radius_m` (> 0). Always exists.
[[nodiscard]] DubinsPath dubins_shortest(const Pose2& from, const Pose2& to, double radius_m);

/// Position along a Dubins path at arc-length s (clamped to [0, length]).
[[nodiscard]] Pose2 dubins_sample(const Pose2& from, const DubinsPath& path, double s_m);

/// Fixed-wing shipping time from an oriented start to an oriented goal:
/// Dubins length / speed. Strictly >= straight-line distance / speed.
[[nodiscard]] double dubins_tship_s(const Pose2& from, const Pose2& to, double radius_m,
                                    double speed_mps);

}  // namespace skyferry::geo
