// Exactness oracle for core::optimize's pruned grid stage: every result
// field must match the exhaustive scan it replaced (legacy::optimize)
// bit for bit, and the pruning must actually fire — an oracle that only
// ever runs the exhaustive path would pass vacuously. The slow tier
// (oracle_slow_test.cc) repeats the random probes at 200k.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "core/optimizer.h"
#include "support/legacy_oracles.h"

namespace skyferry {
namespace {

/// Empty when `got` and `want` agree bit for bit, else the first field
/// that differs.
std::string first_difference(const core::OptimizeResult& got, const core::OptimizeResult& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (bits(got.d_opt_m) != bits(want.d_opt_m)) return "d_opt_m";
  if (bits(got.utility) != bits(want.utility)) return "utility";
  if (bits(got.cdelay_s) != bits(want.cdelay_s)) return "cdelay_s";
  if (bits(got.discount) != bits(want.discount)) return "discount";
  if (got.boundary != want.boundary) return "boundary";
  if (got.evaluations != want.evaluations) return "evaluations";
  return {};
}

/// Solves one pinned case both ways; returns the pruned result.
core::OptimizeResult expect_same(const core::PaperLogThroughput& model,
                                 const uav::FailureModel& failure,
                                 const core::DeliveryParams& params,
                                 core::OptimizeOptions opt = {}) {
  const core::CommDelayModel delay(model, params);
  const core::UtilityFunction u(delay, failure);
  const core::OptimizeResult got = core::optimize(u, opt);
  EXPECT_EQ(first_difference(got, legacy::optimize(u, opt)), "")
      << model.name() << " d0=" << params.d0_m << " v=" << params.speed_mps
      << " M=" << params.mdata_bytes << " rho=" << failure.rho() << " n=" << opt.grid_points;
  return got;
}

TEST(OptimizerOracle, RandomProbesMatchTheExhaustiveScan) {
  const legacy::OptimizeOracleTally t = legacy::optimize_mismatches(25'000, /*seed=*/41);
  EXPECT_EQ(t.mismatches, 0u);
  ASSERT_GT(t.prunable, 10'000u);
  EXPECT_GE(2 * t.pruned, t.prunable) << t.pruned << " of " << t.prunable << " pruned";
}

TEST(OptimizerOracle, DegenerateIntervalHasNoGrid) {
  const auto model = core::PaperLogThroughput::airplane();
  for (const double d0 : {20.0, 10.0}) {
    const core::OptimizeResult r =
        expect_same(model, uav::FailureModel(1e-3), {d0, 5.0, 1e7, 20.0});
    EXPECT_EQ(r.d_opt_m, d0);
    EXPECT_EQ(r.evaluations, 1);
    EXPECT_EQ(r.grid_evaluated, 0);
  }
}

TEST(OptimizerOracle, DeadFitTiesAtZeroAndTheFirstIndexWins) {
  // s(d) = 0 from 14 m on: every U on [20, d0] is 0.
  const core::PaperLogThroughput dead(-10.5, 40.0, "dead");
  for (const uav::FailureLaw law :
       {uav::FailureLaw::kExponential, uav::FailureLaw::kLinear, uav::FailureLaw::kWeibull}) {
    const core::OptimizeResult r =
        expect_same(dead, uav::FailureModel(1e-3, law), {900.0, 5.0, 1e7, 20.0});
    EXPECT_EQ(r.utility, 0.0);
  }
}

TEST(OptimizerOracle, PastTheFitsRangeIsPruned) {
  // The airplane fit dies at ~450 m: U is 0 on most of [20, 3000].
  const auto model = core::PaperLogThroughput::airplane();
  const core::OptimizeResult r =
      expect_same(model, uav::FailureModel(1e-4), {3000.0, 10.0, 28e6, 20.0});
  EXPECT_GT(r.utility, 0.0);
  EXPECT_LT(r.grid_evaluated, 64);
}

TEST(OptimizerOracle, DenormalTiesKeepTheFirstIndex) {
  // U is the smallest denormal: neighbouring grid points tie, and a block
  // bound rounds to exactly the best value. Only a strict `bound < best` keeps the first
  // index of the tie (a `<=` prune returns a later one here).
  const auto model = core::PaperLogThroughput::quadrocopter();
  core::OptimizeOptions opt;
  opt.grid_points = 147;
  const core::OptimizeResult r =
      expect_same(model, uav::FailureModel(0.095740320364063436),
                  {644.13934735423845, 7.9287290029832667, 3.5233945926412161e+306, 20.0}, opt);
  EXPECT_GT(r.utility, 0.0);
  EXPECT_LT(r.utility, std::numeric_limits<double>::min());
  EXPECT_LT(r.grid_evaluated, opt.grid_points);
}

TEST(OptimizerOracle, ZeroRiskAndTinySpeed) {
  const auto model = core::PaperLogThroughput::quadrocopter();
  expect_same(model, uav::FailureModel(0.0), {100.0, 4.5, 56.2e6, 20.0});
  expect_same(model, uav::FailureModel(0.0), {600.0, 1e-3, 1e5, 20.0});
  expect_same(model, uav::FailureModel(2.46e-4), {600.0, 1e-6, 1e9, 20.0});
  expect_same(model, uav::FailureModel(0.0), {100.0, 4.5, 0.0, 20.0});
}

TEST(OptimizerOracle, FlatFitIsPrunedAndRisingFitScansEverything) {
  const core::PaperLogThroughput flat(0.0, 30.0, "flat");
  const core::OptimizeResult f =
      expect_same(flat, uav::FailureModel(1e-3), {400.0, 8.0, 1e8, 20.0});
  EXPECT_LT(f.grid_evaluated, core::grid_size({}));
  const core::PaperLogThroughput rising(1.5, 20.0, "rising");
  const core::OptimizeResult r =
      expect_same(rising, uav::FailureModel(1e-3), {400.0, 8.0, 1e8, 20.0});
  EXPECT_EQ(r.grid_evaluated, core::grid_size({}));
}

TEST(OptimizerOracle, EveryLawAndGridSize) {
  const auto model = core::PaperLogThroughput::airplane();
  for (const uav::FailureLaw law :
       {uav::FailureLaw::kExponential, uav::FailureLaw::kLinear, uav::FailureLaw::kWeibull}) {
    for (int n = 8; n <= 300; ++n) {
      core::OptimizeOptions opt;
      opt.grid_points = n;
      const core::OptimizeResult r =
          expect_same(model, uav::FailureModel(2e-3, law), {300.0, 10.0, 28e6, 20.0}, opt);
      if (n > 256) EXPECT_EQ(r.grid_evaluated, n);
      else EXPECT_LE(r.grid_evaluated, n);
    }
  }
}

TEST(OptimizerOracle, ObjectiveSearchStaysExhaustive) {
  const auto model = core::PaperLogThroughput::airplane();
  const uav::FailureModel failure(1e-3);
  const core::CommDelayModel delay(model, {300.0, 10.0, 28e6, 20.0});
  const core::UtilityFunction u(delay, failure);
  const core::OptimizeResult r = core::optimize_objective(u, [&u](double d) { return u(d); });
  EXPECT_EQ(first_difference(r, legacy::optimize(u)), "");
  EXPECT_EQ(r.grid_evaluated, core::grid_size({}));
}

}  // namespace
}  // namespace skyferry
