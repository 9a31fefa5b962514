#include "geo/gps.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.h"

namespace skyferry::geo {
namespace {

TEST(GpsReceiver, ErrorIsBoundedByConfiguredSigma) {
  GpsNoiseConfig cfg;
  cfg.horizontal_sigma_m = 2.0;
  cfg.vertical_sigma_m = 4.0;
  GpsReceiver rx(cfg, 42);

  stats::RunningStats ex, ey, ez;
  const Vec3 truth{100.0, 200.0, 50.0};
  // Long horizon (many decorrelation times) so the sample mean settles.
  for (int i = 0; i < 40000; ++i) {
    const Vec3 fix = rx.measure(truth, 1.0);
    ex.add(fix.x - truth.x);
    ey.add(fix.y - truth.y);
    ez.add(fix.z - truth.z);
  }
  // Stationary Gauss-Markov: stddev should match the configured sigmas
  // (correlated samples -> generous tolerance).
  EXPECT_NEAR(ex.stddev(), cfg.horizontal_sigma_m, 0.8);
  EXPECT_NEAR(ey.stddev(), cfg.horizontal_sigma_m, 0.8);
  EXPECT_NEAR(ez.stddev(), cfg.vertical_sigma_m, 1.6);
  // Mean error should be near zero.
  EXPECT_NEAR(ex.mean(), 0.0, 0.5);
}

TEST(GpsReceiver, ErrorIsTemporallyCorrelated) {
  GpsNoiseConfig cfg;
  cfg.correlation_time_s = 30.0;
  GpsReceiver rx(cfg, 7);
  const Vec3 truth{};
  (void)rx.measure(truth, 1.0);
  const Vec3 e0 = rx.error();
  (void)rx.measure(truth, 0.1);  // tiny step: error should barely move
  const Vec3 e1 = rx.error();
  EXPECT_LT((e1 - e0).norm(), 1.0);
}

TEST(GpsReceiver, DeterministicForSameSeed) {
  GpsNoiseConfig cfg;
  GpsReceiver a(cfg, 99);
  GpsReceiver b(cfg, 99);
  const Vec3 truth{10.0, 20.0, 30.0};
  for (int i = 0; i < 10; ++i) {
    const Vec3 fa = a.measure(truth, 0.2);
    const Vec3 fb = b.measure(truth, 0.2);
    EXPECT_EQ(fa.x, fb.x);
    EXPECT_EQ(fa.y, fb.y);
    EXPECT_EQ(fa.z, fb.z);
  }
}

TEST(GpsReceiver, IndependentStreamsForDifferentSeeds) {
  GpsNoiseConfig cfg;
  GpsReceiver a(cfg, 1);
  GpsReceiver b(cfg, 2);
  const Vec3 truth{};
  double diff = 0.0;
  for (int i = 0; i < 50; ++i) {
    diff += (a.measure(truth, 0.2) - b.measure(truth, 0.2)).norm();
  }
  EXPECT_GT(diff, 1.0);
}

}  // namespace
}  // namespace skyferry::geo
