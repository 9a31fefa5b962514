#include "stats/ecdf.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace skyferry::stats {
namespace {

TEST(Ecdf, StepFunctionBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 0.25);
  EXPECT_DOUBLE_EQ(f(2.5), 0.5);
  EXPECT_DOUBLE_EQ(f(4.0), 1.0);
  EXPECT_DOUBLE_EQ(f(99.0), 1.0);
}

TEST(Ecdf, EmptySample) {
  const std::vector<double> xs;
  const Ecdf f(xs);
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f(1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.quantile(0.5), 0.0);
}

TEST(Ecdf, QuantileInverse) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  const Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(f.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(f.quantile(1.0), 50.0);
}

TEST(Ecdf, KsDistanceIdenticalIsZero) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const Ecdf a(xs), b(xs);
  EXPECT_DOUBLE_EQ(a.ks_distance(b), 0.0);
}

TEST(Ecdf, KsDistanceDisjointIsOne) {
  const std::vector<double> lo{1.0, 2.0};
  const std::vector<double> hi{10.0, 20.0};
  EXPECT_DOUBLE_EQ(Ecdf(lo).ks_distance(Ecdf(hi)), 1.0);
}

TEST(Ecdf, KsDetectsShift) {
  sim::Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.gaussian(0.0, 1.0));
    b.push_back(rng.gaussian(0.5, 1.0));
  }
  const double d = Ecdf(a).ks_distance(Ecdf(b));
  EXPECT_GT(d, 0.1);
  EXPECT_LT(d, 0.35);
}

// ---- edge-case regressions (NaN rejection, boundary exactness) --------------

TEST(Ecdf, EmptySampleIsSafe) {
  const Ecdf f(std::vector<double>{});
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.quantile(0.5), 0.0);
}

TEST(Ecdf, SingleElement) {
  const Ecdf f(std::vector<double>{4.2});
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f(4.1), 0.0);
  EXPECT_DOUBLE_EQ(f(4.2), 1.0);
  EXPECT_DOUBLE_EQ(f.quantile(0.0), 4.2);
  EXPECT_DOUBLE_EQ(f.quantile(1.0), 4.2);
}

TEST(Ecdf, QuantileExactAtBoundaries) {
  const Ecdf f(std::vector<double>{3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(f.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.quantile(1.0), 3.0);
  // Out-of-range q clamps; NaN q is rejected.
  EXPECT_DOUBLE_EQ(f.quantile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(f.quantile(2.0), 3.0);
  EXPECT_TRUE(std::isnan(f.quantile(std::nan(""))));
}

TEST(Ecdf, DropsNonFiniteSamples) {
  const double inf = std::numeric_limits<double>::infinity();
  const Ecdf f(std::vector<double>{2.0, std::nan(""), 1.0, inf, 3.0});
  EXPECT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f(3.0), 1.0);  // inf no longer holds F below 1
  EXPECT_DOUBLE_EQ(f.quantile(1.0), 3.0);
}

TEST(Ecdf, KsDistanceIgnoresNonFinite) {
  const std::vector<double> clean{1.0, 2.0, 3.0, 4.0};
  std::vector<double> dirty = clean;
  dirty.push_back(std::nan(""));
  EXPECT_DOUBLE_EQ(Ecdf(clean).ks_distance(Ecdf(dirty)), 0.0);
}

}  // namespace
}  // namespace skyferry::stats
