#include "stats/descriptive.h"

#include <vector>

#include <gtest/gtest.h>

namespace skyferry::stats {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats rs;
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats rs;
  rs.add(3.14);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.14);
  EXPECT_DOUBLE_EQ(rs.min(), 3.14);
  EXPECT_DOUBLE_EQ(rs.max(), 3.14);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  // Naive sum-of-squares would lose precision here.
  RunningStats rs;
  const double base = 1e9;
  for (double x : {base + 4.0, base + 7.0, base + 13.0, base + 16.0}) rs.add(x);
  EXPECT_NEAR(rs.variance(), 30.0, 1e-6);
}

TEST(FreeFunctions, Mean) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

}  // namespace
}  // namespace skyferry::stats
