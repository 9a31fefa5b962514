#include "stats/regression.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace skyferry::stats {
namespace {

TEST(LinearFit, ExactLine) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x - 2.0);
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 3.0, 1e-12);
  EXPECT_NEAR(f.intercept, -2.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(f(10.0), 28.0, 1e-12);
}

TEST(LinearFit, ConstantXGivesMeanY) {
  const std::vector<double> xs{2.0, 2.0, 2.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 2.0);
}

TEST(LinearFit, MismatchedSizesReturnsEmpty) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0};
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.r_squared, 0.0);
}

TEST(LinearFit, NoisyDataReasonableR2) {
  sim::Rng rng(123);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = i * 0.1;
    xs.push_back(x);
    ys.push_back(2.0 * x + 1.0 + rng.gaussian(0.0, 0.5));
  }
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 0.1);
  EXPECT_NEAR(f.intercept, 1.0, 0.3);
  EXPECT_GT(f.r_squared, 0.95);
}

TEST(Log2Fit, RecoversPaperAirplaneModel) {
  // Sample the paper's airplane fit s(d) = -5.56*log2(d) + 49 and make
  // sure the fitting pipeline recovers the published coefficients.
  std::vector<double> ds, ss;
  for (double d = 20.0; d <= 320.0; d += 20.0) {
    ds.push_back(d);
    ss.push_back(-5.56 * std::log2(d) + 49.0);
  }
  const Log2Fit f = log2_fit(ds, ss);
  EXPECT_NEAR(f.a, -5.56, 1e-10);
  EXPECT_NEAR(f.b, 49.0, 1e-9);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(f(100.0), -5.56 * std::log2(100.0) + 49.0, 1e-9);
}

TEST(Log2Fit, NoisyRecovery) {
  sim::Rng rng(77);
  std::vector<double> ds, ss;
  for (double d = 20.0; d <= 120.0; d += 5.0) {
    ds.push_back(d);
    ss.push_back(-10.5 * std::log2(d) + 73.0 + rng.gaussian(0.0, 1.0));
  }
  const Log2Fit f = log2_fit(ds, ss);
  EXPECT_NEAR(f.a, -10.5, 1.0);
  EXPECT_NEAR(f.b, 73.0, 6.0);
  EXPECT_GT(f.r_squared, 0.9);
}

}  // namespace
}  // namespace skyferry::stats
