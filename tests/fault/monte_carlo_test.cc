#include "fault/monte_carlo.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace skyferry::fault {
namespace {

MonteCarloConfig crash_only_config(const core::Scenario& scen, int trials,
                                   uav::FailureLaw law = uav::FailureLaw::kExponential) {
  MonteCarloConfig cfg;
  cfg.spec.scenario = scen;
  cfg.spec.faults = FaultPlan::crashes_only(scen.rho_per_m, law);
  cfg.trials = trials;
  cfg.seed = 12345;
  return cfg;
}

// The acceptance gate: 2000+ seeded trials reproduce the paper's
// analytic exponential survival exp(-rho * (d0 - d_opt)) within 2%
// absolute, at both published rho values.
TEST(MonteCarlo, EmpiricalSurvivalMatchesAnalyticExponentialAirplane) {
  const auto scen = core::Scenario::airplane();  // rho = 1.11e-4
  const auto s = run_monte_carlo(crash_only_config(scen, 2000));
  ASSERT_EQ(s.trials, 2000);
  EXPECT_NEAR(s.empirical_approach_survival, s.analytic_approach_survival, 0.02);
  // For the exponential law the injected truth IS the planner's delta(d).
  EXPECT_NEAR(s.analytic_approach_survival, s.planner_delivery_probability, 1e-9);
}

TEST(MonteCarlo, EmpiricalSurvivalMatchesAnalyticExponentialQuadrocopter) {
  const auto scen = core::Scenario::quadrocopter();  // rho = 2.46e-4
  const auto s = run_monte_carlo(crash_only_config(scen, 2000));
  EXPECT_NEAR(s.empirical_approach_survival, s.analytic_approach_survival, 0.02);
  EXPECT_NEAR(s.analytic_approach_survival, s.planner_delivery_probability, 1e-9);
}

TEST(MonteCarlo, AblationLawsDivergeFromExponentialAssumption) {
  // Under the Weibull(k=2) truth early failures are rarer than the
  // exponential planner assumes: empirical survival beats the planner's
  // delta. The harness quantifies the gap instead of hiding it.
  const auto scen = core::Scenario::quadrocopter();
  const auto s = run_monte_carlo(crash_only_config(scen, 1500, uav::FailureLaw::kWeibull));
  EXPECT_GT(s.empirical_approach_survival, s.planner_delivery_probability);
  // The injected-law analytic column still matches its own empirical.
  EXPECT_NEAR(s.empirical_approach_survival, s.analytic_approach_survival, 0.02);
}

TEST(MonteCarlo, SummaryIdenticalAcrossThreadCounts) {
  // The engine's core guarantee: per-trial seeds come from
  // sim::fork(seed, 0, trial) and reduce in trial order, so the thread
  // count is invisible in the results — bit for bit.
  const auto scen = core::Scenario::quadrocopter();
  auto cfg = crash_only_config(scen, 300);
  cfg.spec.faults = FaultPlan::harsh();  // exercise every fault stream
  cfg.threads = 1;
  const auto one = run_monte_carlo(cfg);
  for (int threads : {2, 8}) {
    cfg.threads = threads;
    const auto many = run_monte_carlo(cfg);
    EXPECT_EQ(one.empirical_delivery_probability, many.empirical_delivery_probability) << threads;
    EXPECT_EQ(one.empirical_approach_survival, many.empirical_approach_survival) << threads;
    EXPECT_EQ(one.mean_delivered_fraction, many.mean_delivered_fraction) << threads;
    EXPECT_EQ(one.delivered_mb.median, many.delivered_mb.median) << threads;
    EXPECT_EQ(one.delivered_mb.q1, many.delivered_mb.q1) << threads;
    EXPECT_EQ(one.completion_p50_s, many.completion_p50_s) << threads;
    EXPECT_EQ(one.completion_p99_s, many.completion_p99_s) << threads;
    EXPECT_EQ(one.crashes, many.crashes) << threads;
    EXPECT_EQ(one.negotiation_failures, many.negotiation_failures) << threads;
    EXPECT_EQ(one.mean_arq_retransmissions, many.mean_arq_retransmissions) << threads;
    EXPECT_EQ(many.run_stats.threads, threads);
  }
}

TEST(MonteCarlo, SimulatedLinkSummaryIdenticalAcrossThreadCounts) {
  // The kAggregate link simulator (shared PER-table cache included) must
  // preserve the engine's bit-identical-across-threads guarantee.
  const auto scen = core::Scenario::quadrocopter();
  auto cfg = crash_only_config(scen, 150);
  cfg.spec.faults = FaultPlan::harsh();
  cfg.spec.with_link_simulator(true).with_shared_link_tables();
  cfg.threads = 1;
  const auto one = run_monte_carlo(cfg);
  for (int threads : {2, 8}) {
    cfg.threads = threads;
    const auto many = run_monte_carlo(cfg);
    EXPECT_EQ(one.empirical_delivery_probability, many.empirical_delivery_probability) << threads;
    EXPECT_EQ(one.empirical_approach_survival, many.empirical_approach_survival) << threads;
    EXPECT_EQ(one.mean_delivered_fraction, many.mean_delivered_fraction) << threads;
    EXPECT_EQ(one.delivered_mb.median, many.delivered_mb.median) << threads;
    EXPECT_EQ(one.completion_p50_s, many.completion_p50_s) << threads;
    EXPECT_EQ(one.crashes, many.crashes) << threads;
  }
}

TEST(MonteCarlo, SimulatedLinkStillValidatesDeliveryLaw) {
  // Swapping the analytic s(d) for the measured link rate must not
  // disturb the delta(d) = exp(-rho * (d0 - d)) survival validation —
  // the crash process is independent of the throughput model.
  const auto scen = core::Scenario::quadrocopter();
  auto cfg = crash_only_config(scen, 2000);
  cfg.spec.with_link_simulator(true).with_shared_link_tables();
  const auto s = run_monte_carlo(cfg);
  EXPECT_NEAR(s.empirical_approach_survival, s.analytic_approach_survival, 0.02);
  EXPECT_GT(s.mean_delivered_fraction, 0.0);
  EXPECT_GT(s.completion_p50_s, 0.0);
}

TEST(MonteCarlo, PerTrialResultsIdenticalAcrossThreadCounts) {
  const auto scen = core::Scenario::quadrocopter();
  auto cfg = crash_only_config(scen, 120);
  cfg.keep_trials = true;
  cfg.threads = 1;
  const auto one = run_monte_carlo(cfg);
  cfg.threads = 8;
  const auto eight = run_monte_carlo(cfg);
  ASSERT_EQ(one.trial_results.size(), eight.trial_results.size());
  for (std::size_t i = 0; i < one.trial_results.size(); ++i) {
    EXPECT_EQ(one.trial_results[i].delivered_bytes, eight.trial_results[i].delivered_bytes) << i;
    EXPECT_EQ(one.trial_results[i].completion_time_s, eight.trial_results[i].completion_time_s)
        << i;
    EXPECT_EQ(one.trial_results[i].crashed, eight.trial_results[i].crashed) << i;
  }
}

TEST(MonteCarlo, FluentSettersBuildTheSameConfig) {
  const auto scen = core::Scenario::airplane();
  const auto fluent = MonteCarloConfig{}
                          .with_spec(TrialSpec{}
                                         .with_scenario(scen)
                                         .with_faults(FaultPlan::crashes_only(scen.rho_per_m)))
                          .with_trials(150)
                          .with_seed(12345)
                          .with_threads(2)
                          .with_keep_trials(false);
  const auto a = run_monte_carlo(fluent);
  const auto b = run_monte_carlo(crash_only_config(scen, 150));
  EXPECT_EQ(a.empirical_approach_survival, b.empirical_approach_survival);
  EXPECT_EQ(a.completion_p50_s, b.completion_p50_s);
}

TEST(MonteCarlo, ValidateRejectsBadConfigsTyped) {
  const auto scen = core::Scenario::quadrocopter();
  // Non-positive trials.
  EXPECT_THROW(run_monte_carlo(crash_only_config(scen, 0)), ConfigError);
  EXPECT_THROW(run_monte_carlo(crash_only_config(scen, -5)), ConfigError);
  // NaN distance.
  {
    auto cfg = crash_only_config(scen, 10);
    cfg.spec.scenario.d0_m = std::nan("");
    EXPECT_THROW(run_monte_carlo(cfg), ConfigError);
  }
  {
    auto cfg = crash_only_config(scen, 10);
    cfg.spec.scenario.min_distance_m = std::nan("");
    EXPECT_THROW(run_monte_carlo(cfg), ConfigError);
  }
  // Empty scenario.
  {
    auto cfg = crash_only_config(scen, 10);
    cfg.spec.scenario = core::Scenario{};
    EXPECT_THROW(run_monte_carlo(cfg), ConfigError);
  }
  // Degenerate timing/transfer knobs.
  {
    auto cfg = crash_only_config(scen, 10);
    cfg.spec.max_time_s = 0.0;
    EXPECT_THROW(run_monte_carlo(cfg), ConfigError);
  }
  // The error is typed, not a bare invalid_argument from strtod et al.
  try {
    (void)run_monte_carlo(crash_only_config(scen, 0));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("trials"), std::string::npos);
  }
}

TEST(MonteCarlo, ZeroArqWindowIsRejected) {
  // A zero window never sends a packet: the trial would stall and retreat
  // to a silent failure instead of flagging the spec.
  TrialSpec spec;
  spec.arq.window = 0;
  try {
    spec.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "TrialSpec: arq.window must be > 0");
  }
  auto cfg = crash_only_config(core::Scenario::quadrocopter(), 10);
  cfg.spec.arq.window = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  EXPECT_THROW((void)run_monte_carlo(cfg), ConfigError);
  cfg.spec.arq.window = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(MonteCarlo, RunStatsSidecarIsPopulated) {
  const auto scen = core::Scenario::quadrocopter();
  auto cfg = crash_only_config(scen, 64);
  cfg.threads = 2;
  const auto s = run_monte_carlo(cfg);
  EXPECT_EQ(s.run_stats.threads, 2);
  EXPECT_EQ(s.run_stats.trials_per_point, 64);
  EXPECT_GT(s.run_stats.wall_s, 0.0);
  EXPECT_GT(s.run_stats.trials_per_s, 0.0);
  EXPECT_GT(s.run_stats.total_trial_s, 0.0);
  EXPECT_NE(s.run_stats.to_json().find("\"trials_per_s\""), std::string::npos);
}

TEST(MonteCarlo, SameSeedReproducesBitIdenticalSummary) {
  const auto scen = core::Scenario::quadrocopter();
  const auto a = run_monte_carlo(crash_only_config(scen, 200));
  const auto b = run_monte_carlo(crash_only_config(scen, 200));
  EXPECT_DOUBLE_EQ(a.empirical_delivery_probability, b.empirical_delivery_probability);
  EXPECT_DOUBLE_EQ(a.empirical_approach_survival, b.empirical_approach_survival);
  EXPECT_DOUBLE_EQ(a.mean_delivered_fraction, b.mean_delivered_fraction);
  EXPECT_DOUBLE_EQ(a.completion_p99_s, b.completion_p99_s);

  auto cfg = crash_only_config(scen, 200);
  cfg.seed = 999;
  const auto c = run_monte_carlo(cfg);
  EXPECT_NE(a.empirical_approach_survival, c.empirical_approach_survival);
}

TEST(MonteCarlo, PartialDeliveriesLiftMeanFractionAboveFullProbability) {
  // Resumable ARQ means a crashed trial still counts its delivered
  // prefix: the mean delivered fraction must dominate P(full delivery).
  const auto scen = core::Scenario::quadrocopter();
  auto cfg = crash_only_config(scen, 800);
  cfg.spec.faults.crash.rho_per_m = 2e-3;  // enough crashes to matter
  const auto s = run_monte_carlo(cfg);
  EXPECT_LT(s.empirical_delivery_probability, 1.0);
  EXPECT_GT(s.mean_delivered_fraction, s.empirical_delivery_probability);
}

TEST(MonteCarlo, NoFaultsDeliversEverythingDeterministically) {
  MonteCarloConfig cfg;
  cfg.spec.scenario = core::Scenario::airplane();
  cfg.spec.faults = FaultPlan::none();
  cfg.trials = 50;
  const auto s = run_monte_carlo(cfg);
  EXPECT_DOUBLE_EQ(s.empirical_delivery_probability, 1.0);
  EXPECT_DOUBLE_EQ(s.empirical_approach_survival, 1.0);
  EXPECT_DOUBLE_EQ(s.mean_delivered_fraction, 1.0);
  EXPECT_GT(s.completion_p50_s, 0.0);
  // Without faults every trial is the same deterministic story.
  EXPECT_DOUBLE_EQ(s.completion_p50_s, s.completion_p99_s);
}

TEST(MonteCarlo, KeepTrialsRetainsPerTrialResults) {
  auto cfg = crash_only_config(core::Scenario::quadrocopter(), 25);
  cfg.keep_trials = true;
  const auto s = run_monte_carlo(cfg);
  ASSERT_EQ(s.trial_results.size(), 25u);
  for (const auto& r : s.trial_results) {
    EXPECT_GE(r.delivered_bytes, 0.0);
    EXPECT_LE(r.delivered_bytes, r.total_bytes + 1e-9);
  }
}

// ---- supervised campaigns ---------------------------------------------------

TEST(MonteCarlo, ChaosCrashesAreQuarantinedAndDeltaStaysInWidenedBand) {
  // The ISSUE's acceptance scenario: ~1% of seeds throw; the campaign
  // must complete, quarantine exactly the poisoned trials, report each
  // with a replay command, and keep the delta(d) estimate inside the
  // quarantine-widened confidence band.
  const auto scen = core::Scenario::airplane();
  auto cfg = crash_only_config(scen, 1000);
  cfg.supervision.max_retries = 1;
  cfg.supervision.replay_prefix = "mc --replay-trial";
  cfg.chaos = [](std::uint64_t seed, const exp::CancelToken&) {
    if (seed % 128 == 0) throw std::runtime_error("chaos crash");
  };
  const auto s = run_monte_carlo(cfg);

  int poisoned = 0;
  for (int t = 0; t < 1000; ++t)
    poisoned += sim::fork(12345, 0, static_cast<std::uint64_t>(t)) % 128 == 0 ? 1 : 0;
  ASSERT_GT(poisoned, 0);
  EXPECT_EQ(s.quarantined, poisoned);
  EXPECT_EQ(s.completed_trials, 1000 - poisoned);
  ASSERT_EQ(s.report.failures.size(), static_cast<std::size_t>(poisoned));
  for (const auto& f : s.report.failures) {
    EXPECT_TRUE(f.quarantined);
    EXPECT_EQ(f.seed % 128, 0u);
    EXPECT_EQ(f.replay_cmd, "mc --replay-trial " + std::to_string(f.seed));
  }
  // delta(d) estimate within the widened band around the analytic value.
  EXPECT_GE(s.delivery_ci_halfwidth,
            static_cast<double>(poisoned) / 1000.0);  // quarantine priced in
  EXPECT_NEAR(s.empirical_approach_survival, s.analytic_approach_survival,
              0.02 + static_cast<double>(poisoned) / 1000.0);
  // Taxonomy reaches the stats sidecar.
  EXPECT_EQ(s.run_stats.quarantined, poisoned);
  EXPECT_NE(s.run_stats.to_json().find("\"failures\""), std::string::npos);
}

TEST(MonteCarlo, ChaosHangIsCancelledNotDeadlocked) {
  // One poisoned seed hangs cooperatively; the watchdog cancels it and
  // the campaign completes with exactly that trial quarantined.
  const auto scen = core::Scenario::airplane();
  auto cfg = crash_only_config(scen, 64);
  const std::uint64_t hung = sim::fork(12345, 0, 7);
  cfg.supervision.trial_timeout_ms = 50.0;
  cfg.chaos = [hung](std::uint64_t seed, const exp::CancelToken& token) {
    if (seed == hung) {
      while (true) {
        exp::poll_cancel(token);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  const auto s = run_monte_carlo(cfg);
  EXPECT_EQ(s.quarantined, 1);
  EXPECT_EQ(s.completed_trials, 63);
  ASSERT_EQ(s.report.failures.size(), 1u);
  EXPECT_EQ(s.report.failures[0].kind, exp::TrialFailure::Kind::kTimedOut);
  EXPECT_EQ(s.report.failures[0].seed, hung);
  // The other 63 trials still validate the law loosely.
  EXPECT_GT(s.empirical_approach_survival, 0.5);
}

TEST(MonteCarlo, SupervisedSummaryIdenticalToUnsupervisedWhenClean) {
  // Supervision with no failures must not perturb a single number —
  // this is what keeps the golden figures valid with supervision on.
  const auto scen = core::Scenario::quadrocopter();
  const auto plain = run_monte_carlo(crash_only_config(scen, 300));
  auto cfg = crash_only_config(scen, 300);
  cfg.supervision.max_retries = 3;
  cfg.supervision.trial_timeout_ms = 60000.0;
  const auto sup = run_monte_carlo(cfg);
  EXPECT_EQ(sup.empirical_delivery_probability, plain.empirical_delivery_probability);
  EXPECT_EQ(sup.empirical_approach_survival, plain.empirical_approach_survival);
  EXPECT_EQ(sup.mean_delivered_fraction, plain.mean_delivered_fraction);
  EXPECT_EQ(sup.completion_p99_s, plain.completion_p99_s);
  EXPECT_EQ(sup.quarantined, 0);
  EXPECT_EQ(sup.completed_trials, 300);
}

TEST(MonteCarlo, CheckpointResumeReproducesSummaryBitIdentically) {
  const auto scen = core::Scenario::quadrocopter();
  const std::string ckpt = std::string(::testing::TempDir()) + "mc_resume_test.ckpt.json";
  std::remove(ckpt.c_str());
  const auto reference = run_monte_carlo(crash_only_config(scen, 200));

  // Interrupt partway, then resume at a different thread count.
  auto cfg = crash_only_config(scen, 200);
  cfg.threads = 2;
  cfg.supervision.checkpoint_path = ckpt;
  cfg.supervision.handle_signals = false;
  cfg.supervision.flush_every = 1;
  std::atomic<int> ran{0};
  cfg.chaos = [&ran](std::uint64_t, const exp::CancelToken&) {
    if (ran.fetch_add(1) == 60) exp::request_interrupt();
  };
  const auto partial = run_monte_carlo(cfg);
  exp::clear_interrupt();
  ASSERT_TRUE(partial.interrupted);

  auto rcfg = crash_only_config(scen, 200);
  rcfg.threads = 8;
  rcfg.supervision.checkpoint_path = ckpt;
  rcfg.supervision.handle_signals = false;
  rcfg.supervision.resume = true;
  const auto resumed = run_monte_carlo(rcfg);
  std::remove(ckpt.c_str());
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_GT(resumed.report.resumed_chunks, 0u);
  EXPECT_EQ(resumed.empirical_delivery_probability, reference.empirical_delivery_probability);
  EXPECT_EQ(resumed.empirical_approach_survival, reference.empirical_approach_survival);
  EXPECT_EQ(resumed.mean_delivered_fraction, reference.mean_delivered_fraction);
  EXPECT_EQ(resumed.delivered_mb.median, reference.delivered_mb.median);
  EXPECT_EQ(resumed.completion_p50_s, reference.completion_p50_s);
  EXPECT_EQ(resumed.completion_p99_s, reference.completion_p99_s);
  EXPECT_EQ(resumed.crashes, reference.crashes);
  EXPECT_EQ(resumed.mean_arq_retransmissions, reference.mean_arq_retransmissions);
}

}  // namespace
}  // namespace skyferry::fault
