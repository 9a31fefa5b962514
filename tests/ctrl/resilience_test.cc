#include "ctrl/resilience.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace skyferry::ctrl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The paper's quadrocopter fit — the nominal hypothesis under test.
constexpr double kA = -10.5;
constexpr double kB = 73.0;

double nominal_bps(double d) { return std::max(0.0, 1e6 * (kA * std::log2(d) + kB)); }

OnlineChannelEstimator make_estimator(ChannelEstimatorConfig cfg = {}) {
  return OnlineChannelEstimator(cfg, kA, kB);
}

// The mission's one channel trip: the degradation ladder's threshold,
// which also arms core::ReDecisionPolicy.
bool tripped(const OnlineChannelEstimator& est) {
  return est.divergence() >= DegradationConfig{}.divergence_threshold;
}

TEST(ResilienceChannelEstimator, RejectsNonFiniteSamplesAndCountsThem) {
  auto est = make_estimator();
  EXPECT_FALSE(est.add_sample(kNaN, 1e6));
  EXPECT_FALSE(est.add_sample(kInf, 1e6));
  EXPECT_FALSE(est.add_sample(0.0, 1e6));    // non-positive distance
  EXPECT_FALSE(est.add_sample(-50.0, 1e6));
  EXPECT_FALSE(est.add_sample(50.0, kNaN));
  EXPECT_FALSE(est.add_sample(50.0, -1.0));
  EXPECT_EQ(est.rejected(), 6u);
  EXPECT_EQ(est.accepted(), 0u);
  EXPECT_EQ(est.samples(), 0u);
  // Rejected garbage never perturbs the divergence statistic.
  EXPECT_EQ(est.divergence(), 0.0);
  EXPECT_FALSE(est.estimate().has_value());
}

TEST(ResilienceChannelEstimator, TaggedNoEstimateBelowMinSamples) {
  ChannelEstimatorConfig cfg;
  cfg.min_samples = 8;
  auto est = make_estimator(cfg);
  for (int i = 0; i < 7; ++i) {
    const double d = 100.0 - 5.0 * i;
    ASSERT_TRUE(est.add_sample(d, nominal_bps(d)));
    EXPECT_FALSE(est.estimate().has_value()) << "sample " << i;
  }
  est.add_sample(60.0, nominal_bps(60.0));
  ASSERT_TRUE(est.estimate().has_value());
}

TEST(ResilienceChannelEstimator, RecoversCleanFitAndStaysQuietOnNominal) {
  auto est = make_estimator();
  for (double d = 120.0; d >= 30.0; d -= 3.0) {
    est.add_sample(d, nominal_bps(d));
  }
  const auto e = est.estimate();
  ASSERT_TRUE(e.has_value());
  EXPECT_NEAR(e->a, kA, 0.05);
  EXPECT_NEAR(e->b, kB, 0.3);
  EXPECT_NEAR(e->gain, 1.0, 1e-6);
  EXPECT_GT(e->r_squared, 0.999);
  EXPECT_GT(e->confidence, 0.7);
  EXPECT_FALSE(tripped(est));  // noiseless nominal: zero divergence
  EXPECT_EQ(est.divergence(), 0.0);
}

TEST(ResilienceChannelEstimator, NoMismatchNeverTripsAcrossThousandSeeds) {
  // The false-positive budget of the whole resilience layer: noisy but
  // unbiased probes of the nominal model (probe noise 0.10 vs the
  // detector's assumed 0.12, the mission simulator's defaults) must not
  // trip the CUSUM for any of 10^3 seeds — this is what makes the
  // zero-mismatch bit-identity guarantee hold in the fault simulator.
  int trips = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    sim::Rng rng(seed);
    auto est = make_estimator();
    for (int i = 0; i < 60; ++i) {
      const double d = 130.0 - 1.5 * i;
      const double obs = nominal_bps(d) * std::exp(rng.gaussian(-0.005, 0.10));
      est.add_sample(d, obs);
      if (tripped(est)) ++trips;
    }
  }
  EXPECT_EQ(trips, 0);
}

TEST(ResilienceChannelEstimator, DetectsThroughputDropWithinBoundedSamples) {
  // A 40% rate loss (log-ratio -0.51, z ~ -4.3) must trip within a
  // handful of samples for every seed: detection delay is bounded.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    auto est = make_estimator();
    int detected_at = -1;
    for (int i = 0; i < 20; ++i) {
      const double d = 110.0 - 2.0 * i;
      const double obs = 0.6 * nominal_bps(d) * std::exp(rng.gaussian(-0.005, 0.10));
      est.add_sample(d, obs);
      if (tripped(est)) {
        detected_at = i;
        break;
      }
    }
    ASSERT_GE(detected_at, 0) << "seed " << seed << ": never tripped";
    EXPECT_LE(detected_at, 10) << "seed " << seed;
  }
}

TEST(ResilienceChannelEstimator, GainTracksMultiplicativeError) {
  auto est = make_estimator();
  for (double d = 110.0; d >= 40.0; d -= 2.0) {
    est.add_sample(d, 0.7 * nominal_bps(d));
  }
  const auto e = est.estimate();
  ASSERT_TRUE(e.has_value());
  EXPECT_NEAR(e->gain, 0.7, 0.01);
  EXPECT_TRUE(tripped(est));
}

TEST(ResilienceChannelEstimator, RearmClearsWindowAndDivergence) {
  auto est = make_estimator();
  for (double d = 110.0; d >= 60.0; d -= 2.0) {
    est.add_sample(d, 0.5 * nominal_bps(d));
  }
  ASSERT_TRUE(tripped(est));
  est.rearm();
  EXPECT_EQ(est.divergence(), 0.0);
  EXPECT_EQ(est.ewma(), 0.0);
  EXPECT_EQ(est.samples(), 0u);
  EXPECT_FALSE(est.estimate().has_value());
  // Lifetime counters survive the re-arm (they are bookkeeping, not
  // evidence).
  EXPECT_GT(est.accepted(), 0u);
}

TEST(ResilienceChannelEstimator, DeadLinkAgreementIsNotDivergence) {
  // Beyond max range both the nominal model and the world deliver zero:
  // agreeing on a dead link is not evidence of mismatch.
  auto est = make_estimator();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(est.add_sample(500.0 - i, 0.0));  // nominal is 0 there too
  }
  EXPECT_EQ(est.divergence(), 0.0);
}

TEST(ResilienceHazardEstimator, TaggedNoEstimateBelowMinSamplesAndRejects) {
  HazardRateEstimator est;
  EXPECT_FALSE(est.add_sample(kNaN));
  EXPECT_FALSE(est.add_sample(-1e-4));
  EXPECT_EQ(est.rejected(), 2u);
  EXPECT_FALSE(est.rho().has_value());
  EXPECT_EQ(est.relative_error_vs(2.46e-4), 0.0);  // no estimate: no error claim
  for (int i = 0; i < 7; ++i) {
    est.add_sample(3.0e-4);
    EXPECT_FALSE(est.rho().has_value()) << "sample " << i;
  }
  est.add_sample(3.0e-4);
  ASSERT_TRUE(est.rho().has_value());
  EXPECT_NEAR(*est.rho(), 3.0e-4, 1e-12);
}

TEST(ResilienceHazardEstimator, ConvergesToScaledRhoAndReportsRelativeError) {
  HazardRateEstimator est;
  sim::Rng rng(7);
  const double actual = 1.5 * 2.46e-4;
  for (int i = 0; i < 200; ++i) {
    est.add_sample(actual * std::exp(rng.gaussian(-0.005, 0.10)));
  }
  ASSERT_TRUE(est.rho().has_value());
  EXPECT_NEAR(*est.rho(), actual, 0.15 * actual);
  EXPECT_GT(est.relative_error_vs(2.46e-4), 0.25);
}

TEST(ResilienceLadder, StaysNominalWhenHealthy) {
  DegradedModeController ctl;
  HealthSignals h;  // defaults: all healthy
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ctl.update(h), ResilienceMode::kNominal);
  EXPECT_EQ(ctl.transitions(), 0);
}

TEST(ResilienceLadder, ConfidentMismatchStepsToReEstimated) {
  DegradedModeController ctl;
  HealthSignals h;
  h.divergence = 10.0;
  h.estimator_confidence = 0.8;
  EXPECT_EQ(ctl.update(h), ResilienceMode::kReEstimated);
  EXPECT_EQ(ctl.transitions(), 1);
}

TEST(ResilienceLadder, UntrustworthyMismatchDegradesToConservative) {
  DegradedModeController ctl;
  HealthSignals h;
  h.divergence = 10.0;
  h.estimator_confidence = 0.1;  // below min_confidence
  EXPECT_EQ(ctl.update(h), ResilienceMode::kConservative);
}

TEST(ResilienceLadder, MissionRiskSignalsForceConservative) {
  {
    DegradedModeController ctl;
    HealthSignals h;
    h.control_retry_fraction = 5.0;
    EXPECT_EQ(ctl.update(h), ResilienceMode::kConservative);
  }
  {
    DegradedModeController ctl;
    HealthSignals h;
    h.battery_fraction = 0.10;  // below the floor
    EXPECT_EQ(ctl.update(h), ResilienceMode::kConservative);
  }
}

TEST(ResilienceLadder, ForwardOnlyNeverRecoversMidMission) {
  DegradedModeController ctl;
  HealthSignals sick;
  sick.divergence = 10.0;
  sick.estimator_confidence = 0.8;
  ASSERT_EQ(ctl.update(sick), ResilienceMode::kReEstimated);
  HealthSignals healthy;  // divergence resolved (e.g. after a re-arm)
  EXPECT_EQ(ctl.update(healthy), ResilienceMode::kReEstimated);  // no un-degrade
  sick.estimator_confidence = 0.0;
  ASSERT_EQ(ctl.update(sick), ResilienceMode::kConservative);
  EXPECT_EQ(ctl.update(healthy), ResilienceMode::kConservative);
  EXPECT_EQ(ctl.transitions(), 2);
}

TEST(ResilienceLadder, ModeNamesAreStable) {
  EXPECT_STREQ(to_string(ResilienceMode::kNominal), "nominal");
  EXPECT_STREQ(to_string(ResilienceMode::kReEstimated), "re-estimated");
  EXPECT_STREQ(to_string(ResilienceMode::kConservative), "conservative");
}

}  // namespace
}  // namespace skyferry::ctrl
