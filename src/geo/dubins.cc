#include "geo/dubins.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/geodesy.h"

namespace skyferry::geo {
namespace {

constexpr double kTwoPi = 2.0 * kPi;

double mod2pi(double a) noexcept {
  double r = std::fmod(a, kTwoPi);
  if (r < 0.0) r += kTwoPi;
  return r;
}

struct Candidate {
  bool valid{false};
  std::array<double, 3> t{};  // normalized segment lengths
};

// Standard Dubins word solutions in normalized coordinates: start at
// origin heading alpha, goal at (d, 0) heading beta, unit radius.
Candidate lsl(double alpha, double beta, double d) noexcept {
  const double ca = std::cos(alpha), sa = std::sin(alpha);
  const double cb = std::cos(beta), sb = std::sin(beta);
  const double tmp = d + sa - sb;
  const double p2 = 2.0 + d * d - 2.0 * std::cos(alpha - beta) + 2.0 * d * (sa - sb);
  if (p2 < 0.0) return {};
  const double theta = std::atan2(cb - ca, tmp);
  return {true, {mod2pi(theta - alpha), std::sqrt(p2), mod2pi(beta - theta)}};
}

Candidate rsr(double alpha, double beta, double d) noexcept {
  const double ca = std::cos(alpha), sa = std::sin(alpha);
  const double cb = std::cos(beta), sb = std::sin(beta);
  const double tmp = d - sa + sb;
  const double p2 = 2.0 + d * d - 2.0 * std::cos(alpha - beta) + 2.0 * d * (sb - sa);
  if (p2 < 0.0) return {};
  const double theta = std::atan2(ca - cb, tmp);
  return {true, {mod2pi(alpha - theta), std::sqrt(p2), mod2pi(theta - beta)}};
}

Candidate lsr(double alpha, double beta, double d) noexcept {
  const double ca = std::cos(alpha), sa = std::sin(alpha);
  const double cb = std::cos(beta), sb = std::sin(beta);
  const double p2 = -2.0 + d * d + 2.0 * std::cos(alpha - beta) + 2.0 * d * (sa + sb);
  if (p2 < 0.0) return {};
  const double p = std::sqrt(p2);
  const double theta = std::atan2(-ca - cb, d + sa + sb) - std::atan2(-2.0, p);
  return {true, {mod2pi(theta - alpha), p, mod2pi(theta - beta)}};
}

Candidate rsl(double alpha, double beta, double d) noexcept {
  const double ca = std::cos(alpha), sa = std::sin(alpha);
  const double cb = std::cos(beta), sb = std::sin(beta);
  const double p2 = -2.0 + d * d + 2.0 * std::cos(alpha - beta) - 2.0 * d * (sa + sb);
  if (p2 < 0.0) return {};
  const double p = std::sqrt(p2);
  const double theta = std::atan2(ca + cb, d - sa - sb) - std::atan2(2.0, p);
  return {true, {mod2pi(alpha - theta), p, mod2pi(beta - theta)}};
}

Candidate rlr(double alpha, double beta, double d) noexcept {
  const double sa = std::sin(alpha), sb = std::sin(beta);
  const double tmp = (6.0 - d * d + 2.0 * std::cos(alpha - beta) + 2.0 * d * (sa - sb)) / 8.0;
  if (std::abs(tmp) > 1.0) return {};
  const double p = mod2pi(kTwoPi - std::acos(tmp));
  const double theta = std::atan2(std::cos(alpha) - std::cos(beta), d - sa + sb);
  const double t0 = mod2pi(alpha - theta + p / 2.0);
  return {true, {t0, p, mod2pi(alpha - beta - t0 + p)}};
}

Candidate lrl(double alpha, double beta, double d) noexcept {
  const double sa = std::sin(alpha), sb = std::sin(beta);
  const double tmp = (6.0 - d * d + 2.0 * std::cos(alpha - beta) - 2.0 * d * (sa - sb)) / 8.0;
  if (std::abs(tmp) > 1.0) return {};
  const double p = mod2pi(kTwoPi - std::acos(tmp));
  const double theta = std::atan2(std::cos(beta) - std::cos(alpha), d + sa - sb);
  const double t0 = mod2pi(-alpha + theta + p / 2.0);
  return {true, {t0, p, mod2pi(beta - alpha - t0 + p)}};
}

}  // namespace

DubinsPath dubins_shortest(const Pose2& from, const Pose2& to, double radius_m) {
  const double r = std::max(radius_m, 1e-6);
  // Normalize: rotate/scale so the start is at the origin heading alpha
  // and the goal at (d, 0) heading beta.
  const double dx = to.x - from.x;
  const double dy = to.y - from.y;
  const double big_d = std::hypot(dx, dy);
  const double d = big_d / r;
  const double phi = std::atan2(dy, dx);
  const double alpha = mod2pi(from.theta - phi);
  const double beta = mod2pi(to.theta - phi);

  struct WordFn {
    DubinsWord word;
    Candidate (*fn)(double, double, double);
  };
  static constexpr WordFn kWords[] = {
      {DubinsWord::kLSL, lsl}, {DubinsWord::kRSR, rsr}, {DubinsWord::kLSR, lsr},
      {DubinsWord::kRSL, rsl}, {DubinsWord::kRLR, rlr}, {DubinsWord::kLRL, lrl},
  };

  DubinsPath best;
  double best_len = std::numeric_limits<double>::infinity();
  for (const auto& w : kWords) {
    const Candidate c = w.fn(alpha, beta, d);
    if (!c.valid) continue;
    const double len = c.t[0] + c.t[1] + c.t[2];
    if (len < best_len) {
      best_len = len;
      best.word = w.word;
      best.lengths = c.t;
      best.radius = r;
    }
  }
  return best;
}

Pose2 dubins_sample(const Pose2& from, const DubinsPath& path, double s_m) {
  // Segment turning directions per word: +1 = left, 0 = straight, -1 = right.
  int dirs[3] = {0, 0, 0};
  switch (path.word) {
    case DubinsWord::kLSL: dirs[0] = 1; dirs[1] = 0; dirs[2] = 1; break;
    case DubinsWord::kLSR: dirs[0] = 1; dirs[1] = 0; dirs[2] = -1; break;
    case DubinsWord::kRSL: dirs[0] = -1; dirs[1] = 0; dirs[2] = 1; break;
    case DubinsWord::kRSR: dirs[0] = -1; dirs[1] = 0; dirs[2] = -1; break;
    case DubinsWord::kRLR: dirs[0] = -1; dirs[1] = 1; dirs[2] = -1; break;
    case DubinsWord::kLRL: dirs[0] = 1; dirs[1] = -1; dirs[2] = 1; break;
  }

  double s = std::clamp(s_m, 0.0, path.length_m()) / path.radius;  // normalized
  Pose2 p = from;
  for (int seg = 0; seg < 3; ++seg) {
    const double take = std::min(s, path.lengths[static_cast<std::size_t>(seg)]);
    if (take <= 0.0) continue;
    if (dirs[seg] == 0) {
      p.x += path.radius * take * std::cos(p.theta);
      p.y += path.radius * take * std::sin(p.theta);
    } else {
      const double dir = static_cast<double>(dirs[seg]);
      // Turn center sits at radius r along the left/right perpendicular.
      const double cx = p.x - dir * path.radius * std::sin(p.theta);
      const double cy = p.y + dir * path.radius * std::cos(p.theta);
      // Rotate about the turn center by dir*take.
      const double ang0 = std::atan2(p.y - cy, p.x - cx);
      const double ang1 = ang0 + dir * take;
      p.x = cx + path.radius * std::cos(ang1);
      p.y = cy + path.radius * std::sin(ang1);
      p.theta += dir * take;
    }
    s -= take;
  }
  p.theta = mod2pi(p.theta);
  return p;
}

double dubins_tship_s(const Pose2& from, const Pose2& to, double radius_m, double speed_mps) {
  const DubinsPath path = dubins_shortest(from, to, radius_m);
  return path.length_m() / std::max(speed_mps, 1e-6);
}

}  // namespace skyferry::geo
