#include "policy/service.h"

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/expect.h"
#include "core/delay.h"
#include "core/joint_optimizer.h"
#include "core/scenario.h"
#include "core/throughput_model.h"
#include "core/utility.h"
#include "policy/compiler.h"
#include "sim/rng.h"
#include "uav/failure.h"

namespace skyferry::policy {
namespace {

Query airplane_query(double rho = 2e-3) {
  const auto scen = core::Scenario::airplane();
  Query q;
  q.d0_m = scen.d0_m;
  q.speed_mps = scen.delivery_params().speed_mps;
  q.mdata_bytes = scen.mdata_bytes;
  q.min_distance_m = scen.delivery_params().min_distance_m;
  q.rho_per_m = rho;
  return q;
}

CompilerConfig small_config() {
  CompilerConfig cfg;
  cfg.d0 = {100.0, 400.0, 16};
  cfg.speed = {3.0, 20.0, 8};
  // The d* surface is most curved along data size (it moves the
  // interior/transmit-now tie), so the test grid mirrors the production
  // default's per-cell mdata spacing to hit the same accuracy contract.
  cfg.mdata = {5e6, 6e7, 12, true};
  cfg.rho = {1e-4, 5e-3, 9, true};
  cfg.threads = 2;
  return cfg;
}

TEST(DecisionService, ExactBackendBitIdenticalToOptimize) {
  const auto scen = core::Scenario::airplane();
  const auto model = scen.paper_throughput();
  const DecisionService service(model);
  for (double rho : {1.11e-4, 1e-3, 2e-3, 5e-3, 1e-2}) {
    const Decision d = service.decide_one(airplane_query(rho));
    const uav::FailureModel failure(rho);
    const core::CommDelayModel delay(model, scen.delivery_params());
    const core::UtilityFunction u(delay, failure);
    const core::OptimizeResult r = core::optimize(u);
    EXPECT_EQ(d.d_opt_m, r.d_opt_m) << rho;
    EXPECT_EQ(d.utility, r.utility) << rho;
    EXPECT_EQ(d.cdelay_s, r.cdelay_s) << rho;
    EXPECT_EQ(d.discount, r.discount) << rho;
    EXPECT_EQ(d.boundary, r.boundary) << rho;
    EXPECT_EQ(d.evaluations, r.evaluations) << rho;
    EXPECT_EQ(d.backend, Backend::kExact);
    EXPECT_EQ(d.v_opt_mps, scen.delivery_params().speed_mps);
    EXPECT_EQ(d.rho_per_m, rho);
  }
}

TEST(DecisionService, JointQueryBitIdenticalToOptimizeJoint) {
  const auto scen = core::Scenario::quadrocopter();
  const auto model = scen.paper_throughput();
  const DecisionService service(model);
  Query q = airplane_query();
  q.d0_m = scen.d0_m;
  q.mdata_bytes = scen.mdata_bytes;
  q.objective = Objective::kJointSpeed;
  q.platform = &scen.platform;
  const Decision d = service.decide_one(q);
  const core::JointOptimizeResult r =
      core::optimize_joint(model, scen.platform, scen.delivery_params());
  EXPECT_EQ(d.d_opt_m, r.d_opt_m);
  EXPECT_EQ(d.v_opt_mps, r.v_opt_mps);
  EXPECT_EQ(d.utility, r.utility);
  EXPECT_EQ(d.cdelay_s, r.cdelay_s);
  EXPECT_EQ(d.discount, r.discount);
  EXPECT_EQ(d.rho_per_m, r.rho_at_v);
  EXPECT_EQ(d.boundary, r.boundary);
  EXPECT_EQ(d.evaluations, r.evaluations);
}

TEST(DecisionService, TableBackendServesCoveredQueriesAccurately) {
  const auto model = core::PaperLogThroughput::airplane();
  DecisionService with_table(model);
  with_table.install_table(Compiler(small_config()).compile());
  const DecisionService exact(model);

  sim::Rng rng(11);
  double max_d_err = 0.0;
  double max_regret = 0.0;
  int boundary_disagreements = 0;
  const int samples = 200;
  for (int s = 0; s < samples; ++s) {
    Query q;
    q.d0_m = rng.uniform(100.0, 400.0);
    q.speed_mps = rng.uniform(3.0, 20.0);
    q.mdata_bytes = std::pow(10.0, rng.uniform(std::log10(5e6), std::log10(6e7)));
    q.rho_per_m = std::pow(10.0, rng.uniform(std::log10(1e-4), std::log10(5e-3)));
    ASSERT_TRUE(with_table.table_eligible(q));
    const Decision t = with_table.decide_one(q);
    const Decision e = exact.decide_one(q);
    EXPECT_EQ(t.backend, Backend::kTable);
    EXPECT_EQ(e.backend, Backend::kExact);
    // Served decomposition is self-consistent: U evaluated exactly at
    // the served d*, so it can never exceed the exact optimum.
    EXPECT_LE(t.utility, e.utility + 1e-12);
    // The either-or contract (mirrors Compiler::validate): regret is
    // bounded everywhere; d* accuracy is only demanded off the utility
    // plateau, where the argmax is well-conditioned.
    const double regret = std::abs(t.utility / e.utility - 1.0);
    max_regret = std::max(max_regret, regret);
    const double d_err = std::abs(t.d_opt_m - e.d_opt_m);
    if (regret > ValidationReport::kPlateauRegret) max_d_err = std::max(max_d_err, d_err);
    // Count a boundary disagreement only when the modes are not tied
    // and the exact optimum is not itself within the table's error of
    // an interval end (knife edge).
    if (t.boundary != e.boundary && regret > ValidationReport::kPlateauRegret) {
      const double margin = std::min(e.d_opt_m - q.min_distance_m, q.d0_m - e.d_opt_m);
      if (margin > d_err + 1e-3 * (q.d0_m - q.min_distance_m)) ++boundary_disagreements;
    }
  }
  const check::CheckResult bound =
      check::Expect("service_table_max_d_err_m", 0.0, check::Tolerance::absolute(35.0))
          .check(max_d_err);
  EXPECT_TRUE(bound.ok) << bound.message;
  const check::CheckResult regret_bound =
      check::Expect("service_table_max_regret", 0.0, check::Tolerance::absolute(0.02))
          .check(max_regret);
  EXPECT_TRUE(regret_bound.ok) << regret_bound.message;
  EXPECT_EQ(boundary_disagreements, 0);

  const DecisionService::Counters c = with_table.counters();
  EXPECT_EQ(c.table, static_cast<std::uint64_t>(samples));
  EXPECT_EQ(c.exact, 0u);
}

/// A table only installs into a service whose model is the paper fit
/// it was compiled for: same (a, b, scale, min_distance_m). Anything
/// else is a tagged TableError, and the service stays table-less.
TEST(DecisionService, InstallTableRejectsAnotherThroughputFit) {
  const PolicyTable table = Compiler(small_config()).compile();
  const TableModelSpec& m = table.model();
  const core::PaperLogThroughput quadrocopter = core::PaperLogThroughput::quadrocopter();
  const core::PaperLogThroughput other_scale(m.a, m.b, m.name, 2.0 * m.scale, m.min_distance_m);
  const core::PaperLogThroughput other_floor(m.a, m.b, m.name, m.scale, m.min_distance_m + 5.0);
  const core::TableThroughput not_a_fit({{20.0, 4e7}, {400.0, 1e6}}, "measured");
  for (const core::ThroughputModel* model :
       std::initializer_list<const core::ThroughputModel*>{&quadrocopter, &other_scale,
                                                           &other_floor, &not_a_fit}) {
    DecisionService service(*model);
    EXPECT_THROW(service.install_table(table), TableError) << model->name();
    EXPECT_FALSE(service.has_table()) << model->name();
  }

  // The fit the table was compiled for installs and serves from it.
  const core::PaperLogThroughput airplane = core::PaperLogThroughput::airplane();
  DecisionService service(airplane);
  ASSERT_NO_THROW(service.install_table(table));
  EXPECT_TRUE(service.has_table());
  EXPECT_EQ(service.decide_one(airplane_query()).backend, Backend::kTable);
}

TEST(DecisionService, UncoveredAndOverriddenQueriesFallBackToExact) {
  const auto model = core::PaperLogThroughput::airplane();
  DecisionService service(model);
  service.install_table(Compiler(small_config()).compile());

  Query outside = airplane_query(2e-3);
  outside.d0_m = 900.0;  // beyond the d0 axis
  EXPECT_FALSE(service.table_eligible(outside));
  EXPECT_EQ(service.decide_one(outside).backend, Backend::kExact);

  Query weibull = airplane_query(2e-3);
  weibull.law = uav::FailureLaw::kWeibull;
  EXPECT_FALSE(service.table_eligible(weibull));

  Query other_floor = airplane_query(2e-3);
  other_floor.min_distance_m = 35.0;
  EXPECT_FALSE(service.table_eligible(other_floor));

  EXPECT_GT(service.counters().exact, 0u);
}

TEST(DecisionService, BatchDecideMatchesDecideOneAndValidatesSpans) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  std::vector<Query> queries;
  for (double rho : {1e-4, 1e-3, 5e-3}) queries.push_back(airplane_query(rho));
  std::vector<Decision> answers(queries.size());
  service.decide(queries, answers);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Decision one = service.decide_one(queries[i]);
    EXPECT_EQ(answers[i].d_opt_m, one.d_opt_m);
    EXPECT_EQ(answers[i].utility, one.utility);
  }
  std::vector<Decision> short_out(queries.size() - 1);
  EXPECT_THROW(service.decide(queries, short_out), std::invalid_argument);

  Query joint = airplane_query();
  joint.objective = Objective::kJointSpeed;  // no platform
  EXPECT_THROW((void)service.decide_one(joint), std::invalid_argument);
}

// N threads hammering decide() on ONE shared service with a table
// installed — the TSan tree runs this to prove the hot path is
// data-race-free (read-only table, relaxed counters).
TEST(DecisionService, ConcurrentDecideOnSharedTableIsRaceFree) {
  const auto model = core::PaperLogThroughput::airplane();
  DecisionService service(model);
  service.install_table(Compiler(small_config()).compile());

  std::vector<Query> queries(64);
  sim::Rng rng(23);
  for (auto& q : queries) {
    q.d0_m = rng.uniform(100.0, 400.0);
    q.speed_mps = rng.uniform(3.0, 20.0);
    q.mdata_bytes = rng.uniform(5e6, 6e7);
    q.rho_per_m = rng.uniform(1e-4, 5e-3);
  }
  std::vector<Decision> reference(queries.size());
  service.decide(queries, reference);

  constexpr int kThreads = 8;
  std::vector<std::vector<Decision>> results(kThreads,
                                             std::vector<Decision>(queries.size()));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &queries, &results, t] {
      service.decide(queries, results[static_cast<std::size_t>(t)]);
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& res : results) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(res[i].d_opt_m, reference[i].d_opt_m);
      EXPECT_EQ(res[i].utility, reference[i].utility);
      EXPECT_EQ(res[i].backend, Backend::kTable);
    }
  }
  const DecisionService::Counters c = service.counters();
  EXPECT_EQ(c.table, static_cast<std::uint64_t>((kThreads + 1) * queries.size()));
}

}  // namespace
}  // namespace skyferry::policy
