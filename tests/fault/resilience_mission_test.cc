#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "fault/mission_sim.h"
#include "fault/monte_carlo.h"
#include "fault/trial_codec.h"

namespace skyferry::fault {
namespace {

// Long-approach quadrocopter mission: the scout starts well beyond the
// link's max range, so the in-flight estimator gets a real window of
// live probes before the commit point. The batch is trimmed to 10 MB so
// the now-or-later optimum is *interior* (d* ~ 71 m) — with the paper's
// 56.2 MB batch the transfer term dominates and the planner pins d* to
// the 20 m anti-collision floor, where a re-decision has no room to act.
core::Scenario long_approach_scenario() {
  auto s = core::Scenario::quadrocopter();
  s.d0_m = 400.0;
  s.mdata_bytes = 10.0e6;
  return s;
}

TrialSpec resilient_spec(const core::Scenario& scen, MismatchFaults mm = {}) {
  TrialSpec spec;
  spec.scenario = scen;
  spec.faults = FaultPlan::crashes_only(scen.rho_per_m);
  spec.faults.mismatch = mm;
  spec.resilience.enabled = true;
  return spec;
}

TEST(MismatchChaos, ZeroMismatchResilienceIsBitIdenticalToStatic) {
  // The headline invariant: with no injected mismatch the resilience
  // stack never trips, never diverts, and the mission outcome is
  // bit-identical to the pre-resilience simulator — probe events exist
  // but are pure observers.
  const auto scen = long_approach_scenario();
  TrialSpec off = resilient_spec(scen);
  off.resilience.enabled = false;
  const TrialSpec on = resilient_spec(scen);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const TrialResult a = run_mission_trial(off, seed);
    const TrialResult b = run_mission_trial(on, seed);
    EXPECT_EQ(a.d_opt_m, b.d_opt_m) << seed;
    EXPECT_EQ(b.d_final_m, b.d_opt_m) << seed;  // never diverted
    EXPECT_EQ(a.crashed, b.crashed) << seed;
    EXPECT_EQ(a.delivered_all, b.delivered_all) << seed;
    EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << seed;
    EXPECT_EQ(a.completion_time_s, b.completion_time_s) << seed;
    EXPECT_EQ(a.rendezvous_attempts, b.rendezvous_attempts) << seed;
    EXPECT_EQ(a.arq_retransmissions, b.arq_retransmissions) << seed;
    EXPECT_EQ(b.redecisions, 0) << seed;
    EXPECT_EQ(b.ship_closer_moves, 0) << seed;
    EXPECT_FALSE(b.mismatch_detected) << seed;
    EXPECT_GT(b.probes, 0u) << seed;  // the observers did run
  }
}

TEST(MismatchChaos, ResilientSummaryIdenticalAcrossThreadCounts) {
  // Re-decision rides the per-trial seed streams, so the mismatch-chaos
  // campaign keeps the engine's bit-identical-across-threads guarantee.
  MismatchFaults mm;
  mm.throughput_scale = 0.6;
  MonteCarloConfig cfg;
  cfg.spec = resilient_spec(long_approach_scenario(), mm);
  cfg.trials = 120;
  cfg.seed = 20260809;
  cfg.threads = 1;
  const auto one = run_monte_carlo(cfg);
  for (int threads : {2, 8}) {
    cfg.threads = threads;
    const auto many = run_monte_carlo(cfg);
    EXPECT_EQ(one.empirical_delivery_probability, many.empirical_delivery_probability) << threads;
    EXPECT_EQ(one.mean_delivered_fraction, many.mean_delivered_fraction) << threads;
    EXPECT_EQ(one.mean_delivered_utility, many.mean_delivered_utility) << threads;
    EXPECT_EQ(one.mean_redecisions, many.mean_redecisions) << threads;
    EXPECT_EQ(one.mismatch_detected_fraction, many.mismatch_detected_fraction) << threads;
    EXPECT_EQ(one.completion_p50_s, many.completion_p50_s) << threads;
    EXPECT_EQ(one.completion_p99_s, many.completion_p99_s) << threads;
  }
}

TEST(MismatchChaos, ThroughputOverestimateIsDetectedAndRedecided) {
  // The world delivers 60% of the fitted rate: the CUSUM must trip and
  // the re-decision must move the transmit position closer (a slower
  // link shifts the now-or-later balance toward "later").
  MismatchFaults mm;
  mm.throughput_scale = 0.6;
  const TrialSpec spec = resilient_spec(long_approach_scenario(), mm);
  int detected = 0, redecided = 0, moved_closer = 0, survived = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TrialResult r = run_mission_trial(spec, seed);
    if (!r.survived_approach) continue;  // crashed before the evidence was in
    ++survived;
    detected += r.mismatch_detected ? 1 : 0;
    redecided += r.redecisions > 0 ? 1 : 0;
    moved_closer += r.d_final_m < r.d_opt_m - 1.0 ? 1 : 0;
  }
  ASSERT_GT(survived, 20);
  EXPECT_EQ(detected, survived);  // a 40% rate loss is unmissable
  EXPECT_GT(redecided, survived * 3 / 4);
  EXPECT_GT(moved_closer, survived * 3 / 4);
}

TEST(MismatchChaos, MidFlightRegimeShiftTripsTheDetector) {
  // The model is right for the first 75% of the approach — the shift
  // lands *inside* the live probing zone, after clean in-range samples —
  // then the channel degrades (e.g. terrain shadowing): the detector
  // must trip after the shift, on in-flight evidence alone.
  MismatchFaults mm;
  mm.shift_at_fraction = 0.75;
  mm.shifted_throughput_scale = 0.5;
  const TrialSpec spec = resilient_spec(long_approach_scenario(), mm);
  int detected = 0, survived = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TrialResult r = run_mission_trial(spec, seed);
    if (!r.survived_approach) continue;
    ++survived;
    detected += r.mismatch_detected ? 1 : 0;
  }
  ASSERT_GT(survived, 20);
  EXPECT_GT(detected, survived * 3 / 4);
}

TEST(MismatchChaos, ResilientDeliveredUtilityBeatsStaticUnderMismatch) {
  // The tentpole claim at test scale (the ablation bench machine-checks
  // it on the full grid): same seeds, same injected world, the only
  // difference is whether the mission may re-decide mid-flight.
  MismatchFaults mm;
  mm.throughput_scale = 0.6;
  MonteCarloConfig cfg;
  cfg.spec = resilient_spec(long_approach_scenario(), mm);
  cfg.trials = 150;
  cfg.seed = 7;
  const auto resilient = run_monte_carlo(cfg);
  cfg.spec.resilience.enabled = false;
  const auto static_arm = run_monte_carlo(cfg);
  EXPECT_GE(resilient.mean_delivered_utility, static_arm.mean_delivered_utility);
  EXPECT_GT(resilient.mean_redecisions, 0.0);
}

TEST(ResilienceMission, ShipCloserFallbackOutlivesABankruptBackoffLadder) {
  // Heavy link outages stall the transfer; the retreat ladder is
  // configured bankrupt (zero retries). The static mission gives up with
  // a partial batch — the resilient one aborts-and-ships-closer and can
  // only deliver more (same seed, same world, monotone ARQ progress).
  auto scen = long_approach_scenario();
  TrialSpec spec = resilient_spec(scen);
  spec.faults.link_outage = {1.0 / 15.0, 8.0};
  spec.retreat_backoff.max_attempts = 0;
  TrialSpec static_spec = spec;
  static_spec.resilience.enabled = false;
  int ship_moves = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const TrialResult resilient = run_mission_trial(spec, seed);
    const TrialResult static_run = run_mission_trial(static_spec, seed);
    EXPECT_GE(resilient.delivered_bytes, static_run.delivered_bytes) << seed;
    ship_moves += resilient.ship_closer_moves;
  }
  EXPECT_GT(ship_moves, 0);  // the fallback actually fired somewhere
}

TEST(ResilienceMission, ValidateRejectsBadMismatchAndResilienceSpecs) {
  const auto scen = long_approach_scenario();
  {
    TrialSpec spec = resilient_spec(scen);
    spec.faults.mismatch.rho_scale = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    TrialSpec spec = resilient_spec(scen);
    spec.faults.mismatch.throughput_scale = -0.5;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    TrialSpec spec = resilient_spec(scen);
    spec.faults.mismatch.shift_at_fraction = 1.5;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    TrialSpec spec = resilient_spec(scen);
    spec.resilience.probe_interval_s = 0.0;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    TrialSpec spec = resilient_spec(scen);
    spec.resilience.ship_closer_fraction = 1.5;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    TrialSpec spec = resilient_spec(scen);
    spec.resilience.retry_budget.max_attempts = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  // The one channel trip (degradation ladder and re-decision alike).
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    TrialSpec spec = resilient_spec(scen);
    spec.resilience.degradation.divergence_threshold = bad;
    EXPECT_THROW(spec.validate(), ConfigError) << bad;
  }
  {
    // A disabled stack skips the resilience checks (zero-cost default)
    // but the mismatch plan is validated regardless — it drives the
    // world, not the stack.
    TrialSpec spec = resilient_spec(scen);
    spec.resilience.enabled = false;
    spec.resilience.probe_interval_s = 0.0;
    EXPECT_NO_THROW(spec.validate());
    spec.faults.mismatch.shifted_throughput_scale = -1.0;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
}

TEST(ResilienceMission, TrialCodecRoundTripsResilienceFields) {
  TrialResult r;
  r.d_opt_m = 58.25;
  r.d_final_m = 43.5;
  r.redecisions = 2;
  r.ship_closer_moves = 1;
  r.final_mode = 1;
  r.mismatch_detected = true;
  r.probes = 77;
  r.probe_rejects = 3;
  r.delivered_utility = 0.00125;
  r.delivered_bytes = 1.0e6;
  r.total_bytes = 2.0e6;
  const auto j = exp::Codec<TrialResult>::encode(r);
  const TrialResult d = exp::Codec<TrialResult>::decode(j);
  EXPECT_EQ(d.d_final_m, r.d_final_m);
  EXPECT_EQ(d.redecisions, r.redecisions);
  EXPECT_EQ(d.ship_closer_moves, r.ship_closer_moves);
  EXPECT_EQ(d.final_mode, r.final_mode);
  EXPECT_EQ(d.mismatch_detected, r.mismatch_detected);
  EXPECT_EQ(d.probes, r.probes);
  EXPECT_EQ(d.probe_rejects, r.probe_rejects);
  EXPECT_EQ(d.delivered_utility, r.delivered_utility);
}

TEST(ResilienceMission, MismatchChaosCampaignSurvivesCheckpointResume) {
  // The mismatch fields ride the replay/checkpoint codec: a campaign
  // killed mid-run and resumed must reduce to the same summary.
  MismatchFaults mm;
  mm.throughput_scale = 0.7;
  mm.shift_at_fraction = 0.5;
  mm.shifted_throughput_scale = 0.5;
  MonteCarloConfig cfg;
  cfg.spec = resilient_spec(long_approach_scenario(), mm);
  cfg.trials = 60;
  cfg.seed = 99;
  const auto direct = run_monte_carlo(cfg);
  EXPECT_EQ(direct.trials, 60);
  EXPECT_GT(direct.mismatch_detected_fraction, 0.0);
}

}  // namespace
}  // namespace skyferry::fault
