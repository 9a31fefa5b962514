// Golden paper-fidelity suite (ctest labels: golden, slow).
//
// Re-runs the deterministic paper reproductions in-process — at reduced
// trial counts where the bench is stochastic — and asserts every shape
// claim EXPERIMENTS.md makes, cross-checked against the committed
// golden/ files: recomputed scalars must land inside the *golden's*
// tolerances, sample sets must pass a KS test against the committed
// reference draws, and the Monte-Carlo engine must produce bit-identical
// trial results for any --threads. The bench-level end-to-end version of
// the same gate is scripts/golden_regress.sh --check.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/expect.h"
#include "check/golden.h"
#include "core/nonstationary.h"
#include "core/optimizer.h"
#include "core/planner.h"
#include "core/scenario.h"
#include "core/strategy.h"
#include "exp/supervisor.h"
#include "exp/sweep.h"
#include "io/format.h"
#include "mac/ampdu.h"
#include "mac/contention.h"
#include "mac/link.h"
#include "sim/rng.h"
#include "uav/failure.h"

#ifndef SKYFERRY_GOLDEN_DIR
#define SKYFERRY_GOLDEN_DIR "golden"
#endif

namespace skyferry {
namespace {

const std::vector<std::string> kCommittedGoldens = {
    "table1_platforms",         "fig1_strategy_curves",   "fig2_failure_tradeoff",
    "fig4_gps_traces",          "fig5_airplane_throughput", "fig6_mcs_vs_autorate",
    "fig7_quadrocopter",        "fig8_utility_curves",    "fig9_datasize_speed",
    "ablation_mixed_strategy",  "ablation_joint_speed",   "ablation_contention",
    "ablation_dubins_shipping", "ablation_failure_models", "calibrate_channel",
    "mc_delivery_probability"};

[[nodiscard]] bool LoadGolden(const std::string& bench, check::GoldenFile* out) {
  std::string error;
  const std::string path = std::string(SKYFERRY_GOLDEN_DIR) + "/" + bench + ".json";
  if (!check::GoldenFile::load(path, out, &error)) {
    ADD_FAILURE() << path << ": " << error;
    return false;
  }
  return true;
}

/// Assert a freshly recomputed value against the committed golden entry,
/// using the tolerance stored in the golden (the bench declared it).
void ExpectGoldenMetric(const check::GoldenFile& g, const std::string& name, double actual) {
  const check::GoldenMetric* m = g.find_metric(name);
  ASSERT_NE(m, nullptr) << g.bench() << " golden is missing metric '" << name
                        << "' — rerun scripts/golden_regress.sh --update";
  const check::CheckResult r = check::Expect(name, m->value, m->tol).check(actual);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GoldenDir, AllCommittedGoldensParseWithReplayHeaders) {
  for (const auto& name : kCommittedGoldens) {
    check::GoldenFile g;
    if (!LoadGolden(name, &g)) continue;
    EXPECT_EQ(g.schema(), check::GoldenFile::kSchemaVersion) << name;
    EXPECT_EQ(g.bench(), name);
    EXPECT_FALSE(g.metrics().empty()) << name << ": no machine-checkable claims";
    // Satellite requirement: every --json output embeds its replay header.
    EXPECT_NE(g.replay_command().find(name), std::string::npos)
        << name << ": replay command '" << g.replay_command() << "'";
    const auto& flags = g.replay_flags();
    EXPECT_TRUE(std::any_of(flags.begin(), flags.end(),
                            [](const auto& kv) { return kv.first == "json"; }))
        << name << ": replay flags lack --json";
  }
}

// ---- Table 1: platform facts are exact reproductions ------------------------

TEST(PaperFidelity, Table1PlatformFacts) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("table1_platforms", &g));
  const auto air = uav::PlatformSpec::swinglet();
  const auto quad = uav::PlatformSpec::arducopter();
  ExpectGoldenMetric(g, "airplane_cannot_hover", air.can_hover ? 0.0 : 1.0);
  ExpectGoldenMetric(g, "quad_can_hover", quad.can_hover ? 1.0 : 0.0);
  ExpectGoldenMetric(g, "airplane_range_m", air.range_m());
  ExpectGoldenMetric(g, "quad_range_m", quad.range_m());
  ExpectGoldenMetric(g, "airplane_cruise_mps", air.cruise_speed_mps);
  ExpectGoldenMetric(g, "quad_cruise_mps", quad.cruise_speed_mps);
  ExpectGoldenMetric(g, "airplane_ceiling_m", air.max_safe_altitude_m);
  ExpectGoldenMetric(g, "quad_ceiling_m", quad.max_safe_altitude_m);
  ExpectGoldenMetric(g, "paper_rho_airplane", core::Scenario::airplane().rho_per_m);
  ExpectGoldenMetric(g, "paper_rho_quad", core::Scenario::quadrocopter().rho_per_m);
}

// ---- Figure 1: strategy completion times (median model) ---------------------

TEST(PaperFidelity, Fig1IntermediateDistanceWins) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("fig1_strategy_curves", &g));
  const auto model = core::PaperLogThroughput::quadrocopter();
  const core::SpeedDegradation deg{};
  const core::DeliveryParams params{80.0, 4.5, 20e6, 20.0};
  const auto outcomes = core::compare_strategies({20.0, 40.0, 60.0, 80.0}, model, deg, params);

  double moving_total = 0.0, now_total = 0.0, slowest_hover = 0.0;
  double best_total = 1e300, argmin_d = 0.0;
  std::vector<std::pair<std::string, double>> hover_scores;
  for (const auto& out : outcomes) {
    ExpectGoldenMetric(g, "total_" + out.spec.label() + "_s", out.completion_time_s);
    if (out.spec.kind == core::StrategyKind::kMoveAndTransmit) {
      moving_total = out.completion_time_s;
      continue;
    }
    if (out.spec.kind == core::StrategyKind::kTransmitNow) now_total = out.completion_time_s;
    slowest_hover = std::max(slowest_hover, out.completion_time_s);
    hover_scores.emplace_back(out.spec.label(), out.completion_time_s);
    if (out.spec.kind == core::StrategyKind::kShipThenTransmit &&
        out.completion_time_s < best_total) {
      best_total = out.completion_time_s;
      argmin_d = out.spec.target_distance_m;
    }
  }

  // EXPERIMENTS.md shape claims, re-derived from scratch.
  EXPECT_GE(now_total, slowest_hover - 1e-9)
      << "transmit-now must be the slowest hover strategy for 20 MB";
  EXPECT_TRUE(argmin_d == 40.0 || argmin_d == 60.0)
      << "the d=40..60 near-tie must win, got d=" << argmin_d;
  for (const auto& out : outcomes) {
    if (out.spec.kind == core::StrategyKind::kShipThenTransmit) {
      EXPECT_LE(out.completion_time_s, moving_total + 1e-9)
          << "move-and-transmit must lose to " << out.spec.label();
    }
  }
  ExpectGoldenMetric(g, "argmin_hover_d_m", argmin_d);

  // The committed hover ordering must re-rank identically.
  const check::GoldenOrdering* ord = g.find_ordering("hover_totals_ascending");
  ASSERT_NE(ord, nullptr);
  const auto r = check::OrderingExpect(ord->name, ord->ranked).check(hover_scores);
  EXPECT_TRUE(r.ok) << r.message;

  // Crossover d=80 vs d=60: batch sizes above it favor shipping closer.
  const double mstar = core::crossover_mdata_bytes(model, 80.0, 60.0, 4.5) / 1e6;
  ExpectGoldenMetric(g, "crossover_d80_vs_d60_mb", mstar);
  EXPECT_GT(mstar, 0.0);
  EXPECT_LT(mstar, 20.0) << "the 20 MB batch of Fig.1 must sit above the crossover";
}

// ---- Figure 2: failure tradeoff Monte-Carlo ---------------------------------

struct Fig2Run {
  std::vector<std::vector<int>> delivered;  // [point][trial]
  std::vector<double> completion_s;         // [point]
  std::vector<double> targets;
};

Fig2Run RunFig2(int trials, int threads, std::uint64_t seed, double rho) {
  const core::Scenario scen = core::Scenario::quadrocopter();
  const auto model = scen.paper_throughput();
  const core::SpeedDegradation deg{};
  const core::DeliveryParams params = scen.delivery_params();

  Fig2Run out;
  out.targets = {scen.d0_m, 60.0, scen.min_distance_m};
  const auto points = exp::Sweep{}.axis("d", out.targets).cartesian();
  for (const auto& p : points) {
    const double target_d = p.at("d");
    core::StrategySpec spec;
    spec.kind = (target_d >= params.d0_m) ? core::StrategyKind::kTransmitNow
                                          : core::StrategyKind::kShipThenTransmit;
    spec.target_distance_m = target_d;
    out.completion_s.push_back(simulate_strategy(spec, model, deg, params).completion_time_s);
  }

  exp::RunnerConfig rc;
  rc.threads = threads;
  rc.trials = trials;
  rc.seed = seed;
  exp::SupervisorOptions so;
  so.max_retries = 0;
  const auto run = exp::SupervisedRunner(rc, so).run(points, [&](const exp::Point& p,
                                                                 std::uint64_t s) {
    const uav::FailureModel failure(rho);
    sim::Rng rng(s);
    return failure.sample_failure_distance(rng) >= params.d0_m - p.at("d") ? 1 : 0;
  });
  out.delivered = run.results;
  return out;
}

TEST(PaperFidelity, Fig2TradeoffShapeAtReducedTrials) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("fig2_failure_tradeoff", &g));
  const int kTrials = 4000;  // bench runs 20000; the shape survives 4000
  const auto run = RunFig2(kTrials, 0, 42, 8e-3);

  std::vector<double> p_deliver, ev;
  for (std::size_t k = 0; k < run.targets.size(); ++k) {
    double completes = 0.0;
    for (const int okr : run.delivered[k]) completes += okr;
    const double p = completes / static_cast<double>(run.delivered[k].size());
    p_deliver.push_back(p);
    ev.push_back(run.completion_s[k] > 0.0 ? p / run.completion_s[k] : 0.0);
  }

  // Deeper approach risks the batch: P(deliver) falls as d shrinks.
  EXPECT_GT(p_deliver[0], p_deliver[1]);
  EXPECT_GT(p_deliver[1], p_deliver[2]);
  // ... but transmit-now pays so much delay that any shipping wins on EV.
  EXPECT_GT(ev[1], ev[0]) << "ship-to-60 must beat transmit-now on expected value";
  EXPECT_GT(ev[2], ev[0]) << "ship-to-20 must beat transmit-now on expected value";

  // Recomputed P(deliver) vs the golden value. Both sides are binomial
  // draws (ours at kTrials, the golden's at its recorded sd), so the
  // band combines the two variances; 4 sigma keeps the false-failure
  // rate of this regression test below 1e-4 per metric.
  for (std::size_t k = 0; k < run.targets.size(); ++k) {
    const std::string name = "p_deliver_d=" + io::format_number(run.targets[k]);
    const check::GoldenMetric* m = g.find_metric(name);
    ASSERT_NE(m, nullptr) << name;
    const double var_run = std::max(m->value * (1.0 - m->value), 1e-6) / kTrials;
    const double sd = std::sqrt(var_run + m->tol.sd * m->tol.sd);
    const auto r =
        check::Expect(name, m->value, check::Tolerance::sigmas(4.0, sd)).check(p_deliver[k]);
    EXPECT_TRUE(r.ok) << r.message;
    ExpectGoldenMetric(g, "delay_ok_d=" + io::format_number(run.targets[k]),
                       run.completion_s[k]);
  }
}

TEST(PaperFidelity, Fig2MonteCarloDeterministicAcrossThreads) {
  // The determinism contract behind every committed stochastic golden:
  // per-trial seeds are forked from indices, so the trial results are
  // bit-identical for any worker count.
  const auto one = RunFig2(2000, 1, 42, 8e-3);
  const auto eight = RunFig2(2000, 8, 42, 8e-3);
  ASSERT_EQ(one.delivered.size(), eight.delivered.size());
  for (std::size_t k = 0; k < one.delivered.size(); ++k)
    EXPECT_EQ(one.delivered[k], eight.delivered[k]) << "point " << k;
  EXPECT_EQ(one.completion_s, eight.completion_s);
}

// ---- Figure 8: the optimum moves outward with risk --------------------------

TEST(PaperFidelity, Fig8OptimumMovesOutwardWithRho) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("fig8_utility_curves", &g));
  for (const auto& scen : {core::Scenario::airplane(), core::Scenario::quadrocopter()}) {
    const auto model = scen.paper_throughput();
    std::vector<double> dopts;
    for (double rho : {scen.rho_per_m, 1e-3, 2e-3, 5e-3, 1e-2}) {
      const uav::FailureModel failure(rho);
      const core::CommDelayModel delay(model, scen.delivery_params());
      const core::UtilityFunction u(delay, failure);
      const auto r = core::optimize(u);
      ExpectGoldenMetric(g, scen.name + "_dopt_rho" + io::format_number(rho) + "_m", r.d_opt_m);
      dopts.push_back(r.d_opt_m);
    }
    for (std::size_t i = 1; i < dopts.size(); ++i)
      EXPECT_GE(dopts[i], dopts[i - 1] - 1e-9)
          << scen.name << ": d_opt must be monotone nondecreasing in rho";
  }
}

TEST(PaperFidelity, Fig8D0SensitivityFlipsToTransmitNow) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("fig8_utility_curves", &g));
  const auto scen = core::Scenario::airplane();
  const auto model = scen.paper_throughput();
  const uav::FailureModel failure(2e-3);
  bool flipped = false;
  double prev_dopt = 1e300;
  for (double d0 : {300.0, 260.0, 220.0, 180.0, 140.0, 100.0, 60.0}) {
    core::DeliveryParams p = scen.delivery_params();
    p.d0_m = d0;
    const core::CommDelayModel delay(model, p);
    const core::UtilityFunction u(delay, failure);
    const auto r = core::optimize(u);
    if (d0 == 300.0 || d0 == 260.0 || d0 == 220.0)
      ExpectGoldenMetric(g, "d0sens_dopt_at_d0_" + io::format_number(d0), r.d_opt_m);
    EXPECT_LE(r.d_opt_m, prev_dopt + 1e-9) << "d_opt cannot grow as d0 shrinks";
    prev_dopt = r.d_opt_m;
    if (r.boundary == core::Boundary::kTransmitNow) flipped = true;
  }
  EXPECT_TRUE(flipped) << "once d0 <= d_opt the optimizer must transmit immediately";
}

// ---- Figure 9: Mdata x speed grid monotonicity ------------------------------

TEST(PaperFidelity, Fig9GridMonotoneReduced) {
  // Reduced 3x3 corner grid of the bench's 6x5; the paper's readings are
  // monotonicity claims, so the subgrid inherits them.
  const auto scen = core::Scenario::airplane();
  const auto model = scen.paper_throughput();
  const uav::FailureModel failure(scen.rho_per_m);
  const std::vector<double> speeds{3.0, 10.0, 20.0};
  const std::vector<double> mdatas{5.0, 15.0, 45.0};
  std::vector<std::vector<double>> grid;
  std::vector<double> u_at_v10;
  for (double mdata_mb : mdatas) {
    std::vector<double> row;
    for (double v : speeds) {
      core::DeliveryParams p = scen.delivery_params();
      p.mdata_bytes = mdata_mb * 1e6;
      p.speed_mps = v;
      const core::CommDelayModel delay(model, p);
      const core::UtilityFunction u(delay, failure);
      const auto r = core::optimize(u);
      row.push_back(r.d_opt_m);
      if (v == 10.0) u_at_v10.push_back(r.utility);
    }
    grid.push_back(row);
  }
  for (const auto& row : grid)
    for (std::size_t i = 1; i < row.size(); ++i)
      EXPECT_LE(row[i], row[i - 1] + 1e-9) << "faster UAVs must move closer";
  for (std::size_t vi = 0; vi < speeds.size(); ++vi)
    for (std::size_t mi = 1; mi < grid.size(); ++mi)
      EXPECT_LE(grid[mi][vi], grid[mi - 1][vi] + 1e-9) << "bigger batches must move closer";
  for (std::size_t i = 1; i < u_at_v10.size(); ++i)
    EXPECT_LE(u_at_v10[i], u_at_v10[i - 1] + 1e-12) << "U(d_opt) must fall with Mdata";
}

// ---- Ablations: mixed dominance, non-stationary rho, contention -------------

TEST(PaperFidelity, MixedStrategyWeaklyDominatesShip) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("ablation_mixed_strategy", &g));
  const auto scen = core::Scenario::quadrocopter();
  const auto model = scen.paper_throughput();
  const core::SpeedDegradation deg{};
  for (double mdata_mb : {5.0, 20.0, 56.2}) {
    core::DeliveryParams p = scen.delivery_params();
    p.mdata_bytes = mdata_mb * 1e6;
    const core::DelayedGratificationPlanner planner(model, scen.failure_model());
    const auto dec = planner.decide(p);
    auto run = [&](core::StrategyKind kind, double target) {
      core::StrategySpec spec;
      spec.kind = kind;
      spec.target_distance_m = target;
      return simulate_strategy(spec, model, deg, p, 0.02).completion_time_s;
    };
    const double t_now = run(core::StrategyKind::kTransmitNow, p.d0_m);
    const double t_ship = run(core::StrategyKind::kShipThenTransmit, dec.opt.d_opt_m);
    const double t_move = run(core::StrategyKind::kMoveAndTransmit, p.min_distance_m);
    const double t_mixed = run(core::StrategyKind::kMixed, dec.opt.d_opt_m);
    EXPECT_LE(t_mixed, t_ship + 1e-6)
        << "mixed must weakly dominate pure ship-then-transmit at " << mdata_mb << " MB";
    EXPECT_LE(std::min({t_now, t_ship, t_mixed}), t_move + 1e-9)
        << "move-and-transmit must never be the unique best at " << mdata_mb << " MB";
    if (mdata_mb == 56.2) {
      ExpectGoldenMetric(g, "mixed_baseline_56mb_s", t_mixed);
      ExpectGoldenMetric(g, "ship_baseline_56mb_s", t_ship);
    }
  }
}

TEST(PaperFidelity, NonstationaryHazardZoneMovesOptimumOffFloor) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("ablation_failure_models", &g));
  const auto scen = core::Scenario::quadrocopter();
  const auto model = scen.paper_throughput();
  const core::CommDelayModel delay(model, scen.delivery_params());

  const auto baseline =
      core::optimize_nonstationary(delay, core::constant_rho(scen.rho_per_m));
  const auto hazard = core::optimize_nonstationary(
      delay, core::two_zone_rho(scen.rho_per_m, 0.05, 40.0));
  const auto linear = core::optimize_nonstationary(delay, core::linear_rho(0.05, -4.8e-4));

  EXPECT_LE(baseline.d_opt_m, 25.0) << "stationary quad optimum sits at the 20 m floor";
  EXPECT_GT(hazard.d_opt_m, 30.0) << "hazard zone must lift the optimum off the floor";
  ExpectGoldenMetric(g, "nonstationary_hazard_zone_dopt_m", hazard.d_opt_m);
  ExpectGoldenMetric(g, "nonstationary_linear_dopt_m", linear.d_opt_m);
}

TEST(PaperFidelity, ContentionMoreThanDoublesDelay) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("ablation_contention", &g));
  mac::MacTiming timing;
  mac::MpduFormat f;
  const double frame_s = mac::ampdu_duration_s(f, phy::mcs(2), phy::ChannelWidth::kCw40MHz,
                                               phy::GuardInterval::kShort400ns, 14);
  const double ack_s = mac::block_ack_duration_s(phy::ChannelWidth::kCw40MHz);
  const auto one = mac::analyze_contention(1, timing, frame_s, ack_s);
  const auto two = mac::analyze_contention(2, timing, frame_s, ack_s);
  ExpectGoldenMetric(g, "per_pair_mbps_n1", 11.0 * one.efficiency_vs_single);
  ExpectGoldenMetric(g, "per_pair_mbps_n2", 11.0 * two.efficiency_vs_single);
  EXPECT_LT(two.efficiency_vs_single, 0.5 * one.efficiency_vs_single)
      << "two pairs must more than double each batch's delay";
}

// ---- Distributions: fresh link-sim draws vs committed samples ---------------

TEST(PaperFidelity, Fig7HoverThroughputDistributionKs) {
  check::GoldenFile g;
  ASSERT_TRUE(LoadGolden("fig7_quadrocopter", &g));
  const check::GoldenSamples* ref = g.find_samples("hover_mbps_d60");
  ASSERT_NE(ref, nullptr) << "fig7 golden lacks the hover_mbps_d60 sample set";
  ASSERT_GE(ref->values.size(), 100u);

  // Fresh draws from the same configuration under a seed the bench never
  // uses: only a genuine distribution shift can fail the KS test.
  std::vector<double> fresh;
  for (int k = 0; k < 2; ++k) {
    mac::LinkConfig cfg;
    cfg.channel = phy::ChannelConfig::quadrocopter();
    mac::ArfRate rc;
    mac::LinkSimulator sim(cfg, rc, 987654321ULL + 977ULL * k);
    const auto res = sim.run_saturated(60.0, mac::static_geometry(60.0));
    for (const auto& s : res.samples) fresh.push_back(s.mbps);
  }
  const auto r = check::DistributionExpect(ref->name, ref->values).ks(fresh, ref->ks_alpha);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace skyferry
