#include "check/expect.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace skyferry::check {
namespace {

TEST(Tolerance, MarginIsMaxOfComponents) {
  Tolerance t;
  t.abs = 0.5;
  t.rel = 0.1;
  t.sigma = 2.0;
  t.sd = 0.4;
  EXPECT_DOUBLE_EQ(t.margin(100.0), 10.0);  // rel dominates
  EXPECT_DOUBLE_EQ(t.margin(1.0), 0.8);     // sigma*sd dominates
  EXPECT_DOUBLE_EQ(t.margin(0.0), 0.8);
  EXPECT_DOUBLE_EQ(Tolerance::absolute(0.25).margin(1e9), 0.25);
}

TEST(Tolerance, ExactDetection) {
  EXPECT_TRUE(Tolerance::exact().is_exact());
  EXPECT_FALSE(Tolerance::absolute(0.1).is_exact());
  EXPECT_FALSE(Tolerance::relative(0.1).is_exact());
  EXPECT_FALSE(Tolerance::sigmas(3.0, 0.2).is_exact());
  EXPECT_TRUE(Tolerance::sigmas(3.0, 0.0).is_exact());  // zero noise scale
}

TEST(Expect, ExactPassAndFail) {
  const Expect e("flag", 1.0, Tolerance::exact());
  EXPECT_TRUE(e.check(1.0).ok);
  const auto r = e.check(0.0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.name, "flag");
  EXPECT_NE(r.message.find("exact"), std::string::npos);
}

TEST(Expect, RelativeTolerance) {
  const Expect e("delay", 18.2, Tolerance::relative(0.10));
  EXPECT_TRUE(e.check(18.2).ok);
  EXPECT_TRUE(e.check(19.9).ok);
  EXPECT_FALSE(e.check(20.1).ok);
  EXPECT_FALSE(e.check(16.0).ok);
}

TEST(Expect, SigmaTolerance) {
  // Binomial-style: p=0.73 over n=1000 trials, 3 sigma.
  const double sd = std::sqrt(0.73 * 0.27 / 1000.0);
  const Expect e("p_deliver", 0.73, Tolerance::sigmas(3.0, sd));
  EXPECT_TRUE(e.check(0.73 + 2.9 * sd).ok);
  EXPECT_FALSE(e.check(0.73 + 3.1 * sd).ok);
}

TEST(Expect, NonFiniteActualFails) {
  const Expect e("x", 1.0, Tolerance::relative(0.5));
  EXPECT_FALSE(e.check(std::nan("")).ok);
  EXPECT_FALSE(e.check(INFINITY).ok);
}

TEST(OrderingExpect, RanksAscendingByDefault) {
  const OrderingExpect o("strategies", {"ship", "mixed", "now"});
  EXPECT_TRUE(o.check({{"now", 24.2}, {"ship", 18.2}, {"mixed", 20.0}}).ok);
  const auto r = o.check({{"now", 10.0}, {"ship", 18.2}, {"mixed", 20.0}});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("order flipped"), std::string::npos);
  EXPECT_NE(r.message.find("expected [ship < mixed < now]"), std::string::npos);
}

TEST(OrderingExpect, DescendingMode) {
  const OrderingExpect o("ev", {"d20", "d60", "d100"});
  EXPECT_TRUE(o.check({{"d100", 0.0072}, {"d20", 0.0154}, {"d60", 0.0146}}, false).ok);
}

TEST(OrderingExpect, CheckRanked) {
  const OrderingExpect o("rank", {"a", "b"});
  EXPECT_TRUE(o.check_ranked({"a", "b"}).ok);
  EXPECT_FALSE(o.check_ranked({"b", "a"}).ok);
  EXPECT_FALSE(o.check_ranked({"a"}).ok);
}

std::vector<double> normal_draws(std::uint64_t seed, int n, double mean, double sd) {
  sim::Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(rng.gaussian(mean, sd));
  return v;
}

TEST(DistributionExpect, KsAcceptsSameDistribution) {
  const DistributionExpect d("thr", normal_draws(1, 800, 10.0, 2.0));
  const auto same = normal_draws(2, 400, 10.0, 2.0);
  EXPECT_TRUE(d.ks(same).ok);
}

TEST(DistributionExpect, KsRejectsShiftedDistribution) {
  const DistributionExpect d("thr", normal_draws(1, 800, 10.0, 2.0));
  const auto shifted = normal_draws(2, 400, 13.0, 2.0);
  EXPECT_FALSE(d.ks(shifted).ok);
}

TEST(DistributionExpect, EmptyInputsFail) {
  const DistributionExpect d("thr", {});
  EXPECT_FALSE(d.ks(std::vector<double>{1.0}).ok);
  const DistributionExpect e("thr", {1.0, 2.0});
  EXPECT_FALSE(e.ks(std::vector<double>{}).ok);
}

TEST(StatHelpers, KsCritical) {
  // c(0.05) = 1.358 -> D_crit for n=m=100 is 1.358*sqrt(2/100).
  EXPECT_NEAR(ks_critical(0.05, 100, 100), 1.358 * std::sqrt(0.02), 1e-3);
  EXPECT_TRUE(std::isnan(ks_critical(0.05, 0, 10)));
}

}  // namespace
}  // namespace skyferry::check
