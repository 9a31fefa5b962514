// Compiler::compile decodes flat knot indices and solves fixed chunks on
// an exp::ThreadPool; the exp::Sweep + engine compile it replaced is the
// oracle. Tables must match bit for bit at every thread count.
#include <gtest/gtest.h>

#include "policy/compiler.h"
#include "support/legacy_oracles.h"

namespace skyferry::policy {
namespace {

void expect_matches_legacy_at_every_thread_count(CompilerConfig cfg) {
  cfg.threads = 1;
  const PolicyTable want = legacy::compile(cfg);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    cfg.threads = threads;
    legacy::expect_same_table(want, Compiler(cfg).compile());
  }
}

TEST(CompilerOracle, LinearAxes) {
  CompilerConfig cfg;
  cfg.d0 = {60.0, 500.0, 5};
  cfg.speed = {2.0, 25.0, 4};
  cfg.mdata = {5e6, 1e8, 6};
  cfg.rho = {1e-5, 4e-3, 5};
  expect_matches_legacy_at_every_thread_count(cfg);
}

TEST(CompilerOracle, LogAxes) {
  CompilerConfig cfg;
  cfg.d0 = {40.0, 600.0, 4, true};
  cfg.speed = {1.0, 30.0, 5, true};
  cfg.mdata = {1e6, 2e8, 7, true};
  cfg.rho = {1e-6, 5e-3, 6, true};
  expect_matches_legacy_at_every_thread_count(cfg);
}

TEST(CompilerOracle, TwoKnotAxes) {
  CompilerConfig cfg;
  cfg.d0 = {100.0, 400.0, 2};
  cfg.speed = {3.0, 20.0, 2};
  cfg.mdata = {5e6, 6e7, 2, true};
  cfg.rho = {1e-4, 5e-3, 2, true};
  expect_matches_legacy_at_every_thread_count(cfg);
}

// More knots than one chunk holds, with a ragged last chunk.
TEST(CompilerOracle, RaggedLastChunk) {
  CompilerConfig cfg;
  cfg.d0 = {40.0, 600.0, 7};
  cfg.speed = {1.0, 30.0, 3};
  cfg.mdata = {1e6, 2e8, 11, true};
  cfg.rho = {1e-6, 5e-3, 3, true};
  expect_matches_legacy_at_every_thread_count(cfg);
}

}  // namespace
}  // namespace skyferry::policy
