#include "core/redecide.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/scenario.h"

namespace skyferry::core {
namespace {

const PaperLogThroughput kNominal = PaperLogThroughput::quadrocopter();

ctrl::ChannelEstimate nominal_estimate() {
  ctrl::ChannelEstimate e;
  e.a = kNominal.a();
  e.b = kNominal.b();
  e.gain = 1.0;
  e.r_squared = 0.99;
  e.samples = 32;
  e.confidence = 0.8;
  return e;
}

ReDecisionInput base_input(const core::Scenario& scen) {
  ReDecisionInput in;
  in.current_d_m = scen.d0_m;
  in.target_d_m = 58.0;  // roughly the quadrocopter d*
  in.min_distance_m = scen.min_distance_m;
  in.speed_mps = scen.speed_mps;
  in.mdata_bytes = scen.mdata_bytes;
  in.nominal_rho = scen.rho_per_m;
  return in;
}

TEST(ReDecision, NoTriggerNeverRunsTheOptimizer) {
  // The zero-mismatch bit-identity invariant: without a tripped
  // divergence the policy holds the static plan, always.
  ReDecisionPolicy policy({}, kNominal);
  auto in = base_input(core::Scenario::quadrocopter());
  in.channel = nominal_estimate();
  for (int i = 0; i < 50; ++i) {
    const auto rd = policy.consider(in);
    EXPECT_FALSE(rd.redecided);
    EXPECT_STREQ(rd.reason, "no-trigger");
    EXPECT_EQ(rd.target_d_m, in.target_d_m);
  }
  EXPECT_EQ(policy.redecisions(), 0);
}

TEST(ReDecision, CommitPointGuardHoldsNearTheTarget) {
  ReDecisionConfig cfg;
  cfg.commit_margin_m = 10.0;
  ReDecisionPolicy policy(cfg, kNominal);
  auto in = base_input(core::Scenario::quadrocopter());
  in.current_d_m = in.target_d_m + 8.0;  // inside the commit margin
  in.divergence = 100.0;                 // even with a screaming trigger
  in.channel = nominal_estimate();
  const auto rd = policy.consider(in);
  EXPECT_FALSE(rd.redecided);
  EXPECT_STREQ(rd.reason, "committed");
}

TEST(ReDecision, LowConfidenceChannelTripHolds) {
  ReDecisionPolicy policy({}, kNominal);
  auto in = base_input(core::Scenario::quadrocopter());
  in.divergence = 100.0;
  in.channel = std::nullopt;  // tagged no-estimate
  EXPECT_STREQ(policy.consider(in).reason, "low-confidence");
  auto weak = nominal_estimate();
  weak.confidence = 0.05;
  in.channel = weak;
  EXPECT_STREQ(policy.consider(in).reason, "low-confidence");
  EXPECT_EQ(policy.redecisions(), 0);
}

TEST(ReDecision, RhoTripWithoutEstimateHolds) {
  ReDecisionPolicy policy({}, kNominal);
  auto in = base_input(core::Scenario::quadrocopter());
  in.rho_rel_error = 0.5;
  in.rho_hat = std::nullopt;  // hazard estimator below min_samples
  EXPECT_STREQ(policy.consider(in).reason, "no-rho-estimate");
}

TEST(ReDecision, NominalReEstimateFailsTheImprovementGate) {
  // Divergence tripped but the re-estimate equals the nominal model: the
  // re-optimized target matches the current plan, so the gate holds it.
  ReDecisionPolicy policy({}, kNominal);
  const auto scen = core::Scenario::quadrocopter();
  const DelayedGratificationPlanner planner(kNominal, scen.failure_model());
  auto in = base_input(scen);
  in.target_d_m = planner.decide(scen.delivery_params()).strategy.target_distance_m;
  in.divergence = 100.0;
  in.channel = nominal_estimate();
  const auto rd = policy.consider(in);
  EXPECT_FALSE(rd.redecided);
  EXPECT_STREQ(rd.reason, "below-improvement-gate");
  EXPECT_NEAR(rd.predicted_gain_rel, 0.0, 0.02);
}

TEST(ReDecision, ThroughputCollapseMovesTheTargetCloser) {
  ReDecisionPolicy policy({}, kNominal);
  const auto scen = core::Scenario::quadrocopter();
  auto in = base_input(scen);
  in.divergence = 100.0;
  auto est = nominal_estimate();
  est.a = kNominal.a() * 0.5;  // world delivers half the rate everywhere
  est.b = kNominal.b() * 0.5;
  est.gain = 0.5;
  in.channel = est;
  const auto rd = policy.consider(in);
  ASSERT_TRUE(rd.redecided);
  EXPECT_STREQ(rd.reason, "channel-divergence");
  EXPECT_LT(rd.target_d_m, in.target_d_m);  // slower link: move closer
  EXPECT_GT(rd.predicted_gain_rel, policy.config().min_improvement_rel);
  EXPECT_EQ(policy.redecisions(), 1);
}

TEST(ReDecision, CooldownBlocksBackToBackRedecisions) {
  ReDecisionConfig cfg;
  cfg.cooldown_m = 5.0;
  ReDecisionPolicy policy(cfg, kNominal);
  const auto scen = core::Scenario::quadrocopter();
  auto in = base_input(scen);
  in.divergence = 100.0;
  auto est = nominal_estimate();
  est.a = kNominal.a() * 0.5;
  est.b = kNominal.b() * 0.5;
  in.channel = est;
  ASSERT_TRUE(policy.consider(in).redecided);
  in.current_d_m -= 2.0;  // only 2 m of progress since
  in.target_d_m = 40.0;
  EXPECT_STREQ(policy.consider(in).reason, "cooldown");
}

TEST(ReDecision, MaxRedecisionsCapsTheLadder) {
  ReDecisionConfig cfg;
  cfg.max_redecisions = 0;
  ReDecisionPolicy policy(cfg, kNominal);
  auto in = base_input(core::Scenario::quadrocopter());
  in.divergence = 100.0;
  in.channel = nominal_estimate();
  EXPECT_STREQ(policy.consider(in).reason, "max-redecisions");
}

TEST(ReDecision, RhoDivergenceRedecidesWithNominalChannel) {
  // Stress rho so the failure term actually shapes the optimum, and trim
  // the batch so the static d* is interior. The trip arrives mid-flight,
  // a third of the way down the approach.
  auto scen = core::Scenario::quadrocopter();
  scen.rho_per_m = 2.0e-3;
  scen.d0_m = 400.0;
  scen.mdata_bytes = 10.0e6;
  auto in = base_input(scen);
  const DelayedGratificationPlanner planner(kNominal, scen.failure_model());
  in.target_d_m = planner.decide(scen.delivery_params()).strategy.target_distance_m;
  in.current_d_m = 270.0;
  in.elapsed_s = (scen.d0_m - in.current_d_m) / scen.speed_mps;
  in.rho_rel_error = 2.0;

  // Flying 3x deadlier than assumed: the approach-only intuition says
  // back off and transmit from further out, but on the realized mission
  // metric the extra loiter exposure of a farther, slower transfer
  // cancels the approach exposure saved — E[U] barely moves, and the
  // honest policy *holds* rather than chase noise.
  ReDecisionPolicy deadly({}, kNominal);
  in.rho_hat = 3.0 * scen.rho_per_m;
  const auto hold = deadly.consider(in);
  EXPECT_FALSE(hold.redecided);
  EXPECT_STREQ(hold.reason, "below-improvement-gate");

  // Flying 2x *safer* than assumed: approach exposure is cheap, so
  // pressing closer buys a faster transfer and an earlier completion —
  // that is a real, predicted-and-realized gain, and the policy takes it.
  ReDecisionPolicy safe({}, kNominal);
  in.rho_hat = 0.5 * scen.rho_per_m;
  const auto rd = safe.consider(in);
  ASSERT_TRUE(rd.redecided);
  EXPECT_STREQ(rd.reason, "rho-divergence");
  EXPECT_LT(rd.target_d_m, in.target_d_m);
}

TEST(ReDecision, ReestimatedModelSanityLadder) {
  // Trustworthy, physically sane fit: used directly.
  auto est = nominal_estimate();
  est.a = -8.0;
  est.b = 60.0;
  const auto fit = reestimated_model(kNominal, est, 0.25);
  EXPECT_EQ(fit.name(), "re-estimated-fit");
  EXPECT_DOUBLE_EQ(fit.a(), -8.0);
  // Insane fit (throughput rising with distance): gain-scaled nominal.
  est.a = +3.0;
  est.gain = 0.7;
  const auto gain = reestimated_model(kNominal, est, 0.25);
  EXPECT_EQ(gain.name(), "re-estimated-gain");
  EXPECT_DOUBLE_EQ(gain.a(), kNominal.a() * 0.7);
  EXPECT_DOUBLE_EQ(gain.b(), kNominal.b() * 0.7);
  // Non-finite gain degrades to the plain nominal shape.
  est.gain = std::numeric_limits<double>::quiet_NaN();
  const auto safe = reestimated_model(kNominal, est, 0.25);
  EXPECT_DOUBLE_EQ(safe.a(), kNominal.a());
}

}  // namespace
}  // namespace skyferry::core
