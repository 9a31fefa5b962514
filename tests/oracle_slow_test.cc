// The slow tier of the exactness oracles: the same checks as
// io/json_number_oracle_test.cc, policy/compiler_oracle_test.cc,
// sim/binomial_oracle_test.cc and core/optimizer_oracle_test.cc at full
// size — two million doubles, the compiler's default grid, ten million
// binomial inversions and 200k single-link decisions.
#include <gtest/gtest.h>

#include <string>

#include "io/json.h"
#include "policy/compiler.h"
#include "support/legacy_oracles.h"

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

}  // namespace
}  // namespace skyferry
