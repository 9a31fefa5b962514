// Exactness oracle for the n <= 64 binomial inversion: the exp-free walk
// in sim::binomial_inverse_cdf must pick the same k as the exp/log1p
// walk it replaced (legacy::binomial_inverse_cdf) for every uniform u —
// including u sitting exactly on a cdf value or one ulp to either side —
// and Rng::binomial must leave the stream where the old draw left it.
// The slow tier (oracle_slow_test.cc) repeats the random probes at 1e7.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.h"
#include "support/legacy_oracles.h"

namespace skyferry {
namespace {

using lim = std::numeric_limits<double>;

TEST(BinomialOracle, MillionRandomProbesMatchTheExpWalk) {
  EXPECT_EQ(legacy::binomial_random_mismatches(1'000'000, /*seed=*/31), 0u);
}

/// Success probabilities for the boundary sweep: subnormal, tiny and
/// near-one tails, both sides of 1/2, the A-MPDU regime (0.6-0.99) and a
/// uniform grid.
std::vector<double> boundary_probabilities() {
  std::vector<double> ps = {lim::denorm_min(),
                            1e-310,
                            lim::min(),
                            1e-300,
                            1e-150,
                            1e-30,
                            0x1p-53,
                            1e-12,
                            1e-6,
                            1e-3,
                            0.5,
                            std::nextafter(0.5, 0.0),
                            std::nextafter(0.5, 1.0),
                            1.0 - 1e-12,
                            1.0 - 0x1p-53,
                            std::nextafter(1.0, 0.0)};
  for (int i = 0; i < 40; ++i) ps.push_back(0.6 + 0.39 * i / 39.0);
  for (int i = 1; i < 200; ++i) ps.push_back(i / 200.0);
  return ps;
}

TEST(BinomialOracle, EveryCdfValueAndBothNeighbours) {
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  for (std::uint64_t n = 1; n <= 64; ++n) {
    for (const double p : boundary_probabilities()) {
      for (const double c : legacy::binomial_walk_cdf(n, p)) {
        for (const double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)}) {
          if (!(u >= 0.0 && u < 1.0)) continue;
          ++cases;
          const std::uint64_t want = legacy::binomial_inverse_cdf(n, p, u);
          const std::uint64_t got = sim::binomial_inverse_cdf(n, p, u);
          if (got != want && ++mismatches <= 10) {
            ADD_FAILURE() << "n=" << n << " p=" << std::hexfloat << p << " u=" << u
                          << ": want " << want << ", got " << got;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 1'000'000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(BinomialOracle, NanProbabilityReturnsZeroForEveryU) {
  sim::Rng rng(5);
  for (std::uint64_t n = 1; n <= 64; ++n) {
    for (int i = 0; i < 100; ++i) {
      const double u = rng.uniform();
      EXPECT_EQ(sim::binomial_inverse_cdf(n, lim::quiet_NaN(), u),
                legacy::binomial_inverse_cdf(n, lim::quiet_NaN(), u));
      EXPECT_EQ(sim::binomial_inverse_cdf(n, lim::quiet_NaN(), u), 0u);
    }
  }
}

/// Two streams are in the same state when they agree on what comes next:
/// the cached Box-Muller spare (first gaussian) and the raw words.
void expect_same_state(const sim::Rng& a, const sim::Rng& b, std::size_t call) {
  sim::Rng ca = a;
  sim::Rng cb = b;
  for (int i = 0; i < 2; ++i) ASSERT_EQ(ca.gaussian(), cb.gaussian()) << "after call " << call;
  for (int i = 0; i < 2; ++i) ASSERT_EQ(ca.next_u64(), cb.next_u64()) << "after call " << call;
}

// Whole draws on live streams: degenerate p (<= 0, >= 1), tiny and
// subnormal tails, p = 1/2, NaN (n <= 64 only: the normal tail casts it),
// and the n > 64 normal tail, with gaussian() calls mixed in so the
// Box-Muller spare is sometimes pending when a draw starts.
TEST(BinomialOracle, DrawsLeaveTheStreamWhereTheOldDrawDid) {
  const std::vector<double> edge = {-0.5,   0.0,  lim::denorm_min(), 1e-310, 1e-300, 1e-9,
                                    0.5,    0.9,  1.0 - 1e-12,       1.0,    1.5};
  sim::Rng pick(77);
  sim::Rng a(2026);
  sim::Rng b(2026);
  for (std::size_t call = 0; call < 100'000; ++call) {
    const std::uint64_t n = pick.uniform_int(200);
    double p = pick.uniform_int(2) == 0 ? pick.uniform() : edge[pick.uniform_int(edge.size())];
    if (n <= 64 && pick.uniform_int(50) == 0) p = lim::quiet_NaN();
    if (pick.uniform_int(10) == 0) {
      ASSERT_EQ(a.gaussian(), b.gaussian());
    }
    ASSERT_EQ(a.binomial(n, p), legacy::binomial(b, n, p))
        << "call " << call << " n=" << n << " p=" << std::hexfloat << p;
    expect_same_state(a, b, call);
  }
}

}  // namespace
}  // namespace skyferry
