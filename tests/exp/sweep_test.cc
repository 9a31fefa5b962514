#include "exp/sweep.h"

#include <gtest/gtest.h>

namespace skyferry::exp {
namespace {

TEST(Sweep, EmptySweepExpandsToOneAxislessPoint) {
  const auto pts = Sweep{}.cartesian();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].index, 0u);
  EXPECT_TRUE(pts[0].coords.empty());
  EXPECT_EQ(pts[0].label(), "");
}

TEST(Sweep, CartesianFirstAxisSlowest) {
  const auto pts = Sweep{}
                       .axis("rho", {1.0, 2.0})
                       .axis("d", {10.0, 20.0, 30.0})
                       .cartesian();
  ASSERT_EQ(pts.size(), 6u);
  // rho held while d cycles.
  EXPECT_DOUBLE_EQ(pts[0].at("rho"), 1.0);
  EXPECT_DOUBLE_EQ(pts[0].at("d"), 10.0);
  EXPECT_DOUBLE_EQ(pts[2].at("rho"), 1.0);
  EXPECT_DOUBLE_EQ(pts[2].at("d"), 30.0);
  EXPECT_DOUBLE_EQ(pts[3].at("rho"), 2.0);
  EXPECT_DOUBLE_EQ(pts[3].at("d"), 10.0);
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].index, i);
}

TEST(Sweep, RejectsEmptyAxisAndDuplicateName) {
  Sweep s;
  EXPECT_THROW(s.axis("a", {}), SweepError);
  s.axis("a", {1.0});
  EXPECT_THROW(s.axis("a", {2.0}), SweepError);
}

TEST(Sweep, PointAtUnknownAxisThrows) {
  const auto pts = Sweep{}.axis("rho", {1.0}).cartesian();
  EXPECT_TRUE(pts[0].has("rho"));
  EXPECT_FALSE(pts[0].has("nope"));
  EXPECT_THROW((void)pts[0].at("nope"), SweepError);
}

TEST(Sweep, LabelNamesEveryAxis) {
  const auto pts = Sweep{}.axis("rho", {0.001}).axis("d", {60.0}).cartesian();
  EXPECT_EQ(pts[0].label(), "rho=0.001 d=60");
}

}  // namespace
}  // namespace skyferry::exp
