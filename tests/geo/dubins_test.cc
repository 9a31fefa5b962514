#include "geo/dubins.h"

#include <cmath>

#include <gtest/gtest.h>

#include "geo/geodesy.h"

namespace skyferry::geo {
namespace {

constexpr double kR = 20.0;  // Swinglet minimum turn radius

TEST(Dubins, StraightAheadIsStraightLine) {
  const Pose2 from{0.0, 0.0, 0.0};
  const Pose2 to{100.0, 0.0, 0.0};
  const DubinsPath p = dubins_shortest(from, to, kR);
  EXPECT_NEAR(p.length_m(), 100.0, 1e-6);
}

TEST(Dubins, NeverShorterThanEuclidean) {
  // Property over a pose grid: Dubins length >= straight-line distance.
  for (double x : {-80.0, 0.0, 60.0, 150.0}) {
    for (double y : {-50.0, 0.0, 90.0}) {
      for (double th : {0.0, 1.0, 2.5, 4.5}) {
        const Pose2 from{0.0, 0.0, 0.3};
        const Pose2 to{x, y, th};
        const DubinsPath p = dubins_shortest(from, to, kR);
        const double euclid = std::hypot(x, y);
        EXPECT_GE(p.length_m(), euclid - 1e-6)
            << "x=" << x << " y=" << y << " th=" << th;
      }
    }
  }
}

TEST(Dubins, SampleEndpointsMatch) {
  // The sampled pose at s = length must land on the goal pose.
  for (double x : {-70.0, 40.0, 120.0}) {
    for (double th : {0.0, 1.5, 3.0, 5.0}) {
      const Pose2 from{10.0, -20.0, 0.7};
      const Pose2 to{x, 35.0, th};
      const DubinsPath p = dubins_shortest(from, to, kR);
      const Pose2 start = dubins_sample(from, p, 0.0);
      EXPECT_NEAR(start.x, from.x, 1e-9);
      EXPECT_NEAR(start.y, from.y, 1e-9);
      const Pose2 end = dubins_sample(from, p, p.length_m());
      EXPECT_NEAR(end.x, to.x, 0.01) << "x=" << x << " th=" << th;
      EXPECT_NEAR(end.y, to.y, 0.01) << "x=" << x << " th=" << th;
      const double dth = std::fmod(std::abs(end.theta - to.theta), 2.0 * kPi);
      EXPECT_LT(std::min(dth, 2.0 * kPi - dth), 0.01) << "x=" << x << " th=" << th;
    }
  }
}

TEST(Dubins, UTurnCostsAtLeastPiR) {
  // Reverse direction at the same point: at least a half-circle each way.
  const Pose2 from{0.0, 0.0, 0.0};
  const Pose2 to{0.0, 0.0, kPi};
  const DubinsPath p = dubins_shortest(from, to, kR);
  EXPECT_GE(p.length_m(), kPi * kR - 1e-6);
}

TEST(Dubins, TighterRadiusNeverLengthens) {
  const Pose2 from{0.0, 0.0, 1.2};
  const Pose2 to{90.0, -40.0, 4.0};
  const double loose = dubins_shortest(from, to, 40.0).length_m();
  const double tight = dubins_shortest(from, to, 10.0).length_m();
  EXPECT_LE(tight, loose + 1e-6);
}

TEST(Dubins, SamplePathIsContinuous) {
  const Pose2 from{0.0, 0.0, 0.0};
  const Pose2 to{60.0, 80.0, 2.0};
  const DubinsPath p = dubins_shortest(from, to, kR);
  Pose2 prev = dubins_sample(from, p, 0.0);
  for (double s = 1.0; s <= p.length_m(); s += 1.0) {
    const Pose2 cur = dubins_sample(from, p, s);
    EXPECT_NEAR(std::hypot(cur.x - prev.x, cur.y - prev.y), 1.0, 0.05);
    prev = cur;
  }
}

TEST(Dubins, ShipTimeExceedsStraightLineEstimate) {
  // The ferry leaves its loiter circle heading away from the rendezvous:
  // the Dubins time is strictly worse than the base model's (d0-d)/v.
  const Pose2 from{0.0, 0.0, kPi};  // heading away
  const Pose2 to{200.0, 0.0, 0.0};
  const double v = 10.0;
  const double straight = 200.0 / v;
  const double dubins = dubins_tship_s(from, to, kR, v);
  EXPECT_GT(dubins, straight);
  // But bounded: the detour is at most ~2 full turns.
  EXPECT_LT(dubins, straight + 2.0 * 2.0 * kPi * kR / v);
}

}  // namespace
}  // namespace skyferry::geo
