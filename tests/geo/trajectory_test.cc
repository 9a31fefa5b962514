#include "geo/trajectory.h"

#include <gtest/gtest.h>

namespace skyferry::geo {
namespace {

Trajectory straight_line() {
  Trajectory t;
  t.push({0.0, {0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}});
  t.push({10.0, {100.0, 0.0, 0.0}, {10.0, 0.0, 0.0}});
  return t;
}

TEST(Trajectory, EmptyBasics) {
  Trajectory t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_DOUBLE_EQ(t.duration(), 0.0);
  EXPECT_DOUBLE_EQ(t.path_length(), 0.0);
}

TEST(Trajectory, InterpolatesPosition) {
  const Trajectory t = straight_line();
  EXPECT_DOUBLE_EQ(t.position_at(5.0).x, 50.0);
  EXPECT_DOUBLE_EQ(t.position_at(2.5).x, 25.0);
}

TEST(Trajectory, ClampsOutsideSpan) {
  const Trajectory t = straight_line();
  EXPECT_DOUBLE_EQ(t.position_at(-5.0).x, 0.0);
  EXPECT_DOUBLE_EQ(t.position_at(99.0).x, 100.0);
}

TEST(Trajectory, PathLength) {
  Trajectory t;
  t.push({0.0, {0.0, 0.0, 0.0}, {}});
  t.push({1.0, {3.0, 0.0, 0.0}, {}});
  t.push({2.0, {3.0, 4.0, 0.0}, {}});
  EXPECT_DOUBLE_EQ(t.path_length(), 7.0);
}

TEST(Trajectory, DuplicateTimeSamplesAreSafe) {
  Trajectory t;
  t.push({0.0, {0.0, 0.0, 0.0}, {}});
  t.push({0.0, {1.0, 0.0, 0.0}, {}});
  t.push({1.0, {2.0, 0.0, 0.0}, {}});
  // Lookup at the duplicated instant must not divide by zero.
  const Vec3 p = t.position_at(0.0);
  EXPECT_GE(p.x, 0.0);
  EXPECT_LE(p.x, 2.0);
}

TEST(Trajectory, ToGeoRoundTrip) {
  const LocalFrame frame(GeoPoint{47.0, 8.0, 400.0});
  const Trajectory t = straight_line();
  const auto geos = t.to_geo(frame);
  ASSERT_EQ(geos.size(), 2u);
  EXPECT_NEAR(frame.to_enu(geos[1]).x, 100.0, 1e-6);
}

}  // namespace
}  // namespace skyferry::geo
