// The slow tier of the exactness oracles: the same checks as
// io/json_number_oracle_test.cc, policy/compiler_oracle_test.cc,
// sim/binomial_oracle_test.cc, core/optimizer_oracle_test.cc and
// link/multilink_oracle_test.cc at full size — two million doubles, the
// compiler's default grid, ten million binomial inversions, 200k
// single-link decisions and 40k joint (link, d) queries, each with its
// switch elections.
#include <gtest/gtest.h>

#include <string>

#include "io/json.h"
#include "policy/compiler.h"
#include "support/legacy_oracles.h"
#include "support/multilink_oracle.h"

namespace skyferry {
namespace {

TEST(JsonNumberOracleSlow, ByteEqualOnTwoMillionDoubles) {
  const std::vector<double> probes = legacy::json_number_probes(2'000'000, /*seed=*/12);
  ASSERT_GE(probes.size(), 2'000'000u);
  std::size_t mismatches = 0;
  for (const double v : probes) {
    const std::string want = legacy::json_number(v);
    if (io::json_number(v) != want && ++mismatches <= 10)
      ADD_FAILURE() << std::hexfloat << v << ": want " << want << ", got " << io::json_number(v);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CompilerOracleSlow, DefaultGridMatchesTheSweepCompile) {
  policy::CompilerConfig cfg;  // 29 x 13 x 25 x 17 = 160 225 knots
  cfg.threads = 4;
  const policy::PolicyTable want = legacy::compile(cfg);
  ASSERT_EQ(want.knots(), 160'225u);
  legacy::expect_same_table(want, policy::Compiler(cfg).compile());
}

TEST(BinomialOracleSlow, TenMillionRandomProbesMatchTheExpWalk) {
  EXPECT_EQ(legacy::binomial_random_mismatches(10'000'000, /*seed=*/32), 0u);
}

TEST(OptimizerOracleSlow, TwoHundredThousandProbesMatchTheExhaustiveScan) {
  const legacy::OptimizeOracleTally t = legacy::optimize_mismatches(200'000, /*seed=*/42);
  EXPECT_EQ(t.mismatches, 0u);
  EXPECT_GE(2 * t.pruned, t.prunable) << t.pruned << " of " << t.prunable << " pruned";
}

TEST(MultiLinkOracleSlow, TwentyThousandRandomQueriesMatchTheReference) {
  const legacy::MultiLinkOracleTally t = legacy::multilink_random_mismatches(20'000, 0x51A7EULL);
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  EXPECT_GE(t.pruned_free * 2, t.multi_link_free);
  EXPECT_GE(t.grid_pruned_free * 2, t.bounded_free);
  EXPECT_GE(t.switches_pruned * 2, t.switches);
  EXPECT_GT(t.switches_committed, 0);
}

TEST(MultiLinkOracleSlow, TwentyThousandPaperFitQueriesMatchTheReference) {
  const legacy::MultiLinkOracleTally t =
      legacy::multilink_curvature_mismatches(20'000, 0x51A7FULL);
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  EXPECT_GE(t.grid_pruned_free * 2, t.bounded_free);
}

}  // namespace
}  // namespace skyferry
