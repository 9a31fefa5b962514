#include "phy/per_table.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "mac/ampdu.h"
#include "mac/exchange.h"
#include "phy/mcs.h"

namespace skyferry::phy {
namespace {

constexpr int kMpduBits = 1540 * 8;

class PerTableAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(PerTableAccuracyTest, ExactAtEveryKnot) {
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(GetParam());
  const PerTable tab(em, m, kMpduBits);
  for (int i = 0; i < tab.knots(); ++i) {
    const double snr = tab.knot_snr_db(i);
    // Bit-exact: the knot values ARE the analytic model.
    EXPECT_EQ(tab.per(snr), em.packet_error_rate(m, snr, kMpduBits)) << "knot " << i;
  }
}

TEST_P(PerTableAccuracyTest, WithinAbsoluteToleranceEverywhere) {
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(GetParam());
  const PerTable tab(em, m, kMpduBits);
  // Dense off-knot sweep: 16 probes per grid step across the full grid.
  double max_err = 0.0;
  for (double snr = PerTable::kSnrMinDb; snr <= PerTable::kSnrMaxDb;
       snr += PerTable::kStepDb / 16.0) {
    const double err = std::abs(tab.per(snr) - em.packet_error_rate(m, snr, kMpduBits));
    max_err = std::max(max_err, err);
  }
  EXPECT_LE(max_err, 1e-4);  // the documented accuracy contract
}

TEST_P(PerTableAccuracyTest, MonotoneNonIncreasingInSnr) {
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(GetParam());
  const PerTable tab(em, m, kMpduBits);
  double prev = 1.0;
  for (double snr = -14.0; snr <= 50.0; snr += 0.03) {
    const double p = tab.per(snr);
    EXPECT_LE(p, prev + 1e-12) << "snr=" << snr;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMcs, PerTableAccuracyTest, ::testing::Range(0, kNumMcs));

TEST(PerTable, ClampsOutsideGrid) {
  const ErrorModel em(0.9);
  const PerTable tab(em, mcs(3), kMpduBits);
  EXPECT_EQ(tab.per(PerTable::kSnrMinDb - 50.0), tab.per(PerTable::kSnrMinDb));
  EXPECT_EQ(tab.per(PerTable::kSnrMaxDb + 50.0), tab.per(PerTable::kSnrMaxDb));
  // The grid edges sit in the saturated regions for every MCS.
  EXPECT_EQ(tab.per(PerTable::kSnrMinDb), 1.0);
  EXPECT_EQ(tab.per(PerTable::kSnrMaxDb), 0.0);
}

TEST(PerTable, MarginalMatchesDenseNumericIntegration) {
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(1);
  const PerTable tab(em, m, kMpduBits);
  const double sigma = 2.0;
  for (double snr = 0.0; snr <= 20.0; snr += 1.0) {
    // Riemann sum of E[per(snr + sigma*Z)] over +-6 sigma.
    double num = 0.0, wsum = 0.0;
    for (double z = -6.0; z <= 6.0; z += 0.01) {
      const double w = std::exp(-0.5 * z * z);
      num += w * em.packet_error_rate(m, snr + sigma * z, kMpduBits);
      wsum += w;
    }
    num /= wsum;
    // The 31-node Gauss-Hermite rule truncates at ~1e-3 worst-case on
    // the steep mid-waterfall sigmoid; end-to-end accuracy is gated by
    // the fidelity-equivalence tests in tests/mac/link_test.cc.
    EXPECT_NEAR(tab.marginal_per(snr, sigma), num, 2.5e-3) << "snr=" << snr;
  }
}

TEST(PerTable, MarginalZeroSigmaIsPlainLookup) {
  const ErrorModel em(0.9);
  const PerTable tab(em, mcs(2), kMpduBits);
  for (double snr = -5.0; snr <= 30.0; snr += 0.7) {
    EXPECT_EQ(tab.marginal_per(snr, 0.0), tab.per(snr));
  }
}

TEST(PerTable, MarginalizedBuildMatchesRuntimeQuadrature) {
  // A table built with jitter_sigma_db answers per() as the plain
  // table's marginal_per() — same quadrature, folded into the knots.
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(1);
  const double sigma = 2.0;
  const PerTable plain(em, m, kMpduBits);
  const PerTable marg(em, m, kMpduBits, sigma);
  for (int i = 0; i < marg.knots(); ++i) {
    const double snr = marg.knot_snr_db(i);
    EXPECT_NEAR(marg.per(snr), plain.marginal_per(snr, sigma), 1e-12) << "knot " << i;
  }
  // Off-knot queries lerp the smooth marginal: small absolute error.
  for (double snr = -5.0; snr <= 25.0; snr += 0.0317) {
    EXPECT_NEAR(marg.per(snr), plain.marginal_per(snr, sigma), 2e-4) << "snr=" << snr;
  }
}

TEST(PerTable, MarginalizedIsMonotoneNonIncreasing) {
  const ErrorModel em(0.9);
  const PerTable marg(em, mcs(4), kMpduBits, 2.0);
  double prev = 1.0;
  for (double snr = -14.0; snr <= 50.0; snr += 0.05) {
    const double p = marg.per(snr);
    EXPECT_LE(p, prev + 1e-12) << "snr=" << snr;
    prev = p;
  }
}

TEST(PerTableCache, BuildsLazilyAndReuses) {
  PerTableCache cache(0.9);
  EXPECT_EQ(cache.size(), 0u);
  const PerTable& a = cache.table(mcs(3), kMpduBits);
  EXPECT_EQ(cache.size(), 1u);
  const PerTable& b = cache.table(mcs(3), kMpduBits);
  EXPECT_EQ(&a, &b);  // same table, not a rebuild
  EXPECT_EQ(cache.size(), 1u);
  std::ignore = cache.table(mcs(3), 256);             // different frame size class
  std::ignore = cache.table(mcs(3), kMpduBits, 2.0);  // jitter-marginalized variant
  std::ignore = cache.table(mcs(5), kMpduBits);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(PerTableCache, TableMatchesDirectConstruction) {
  PerTableCache cache(0.85);
  const PerTable direct(ErrorModel(0.85), mcs(2), kMpduBits);
  const PerTable& cached = cache.table(mcs(2), kMpduBits);
  for (double snr = -10.0; snr <= 40.0; snr += 0.4) {
    EXPECT_EQ(cached.per(snr), direct.per(snr));
  }
}

TEST(PerTableCache, ServesOnlyItsOwnSpatialCorrelation) {
  const PerTableCache cache(0.85);
  EXPECT_EQ(cache.spatial_correlation(), 0.85);
  EXPECT_TRUE(cache.serves(0.85));
  EXPECT_FALSE(cache.serves(0.9));
  // Correlations clamp to [0, 1] in the error model, so two inputs that
  // clamp alike build identical tables.
  const PerTableCache saturated(1.5);
  EXPECT_TRUE(saturated.serves(1.0));
  EXPECT_TRUE(saturated.serves(2.0));
  EXPECT_FALSE(saturated.serves(0.99));
}

/// FNV-1a over raw bytes.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void fold(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    bytes(&u, sizeof u);
  }
  void fold(std::int64_t v) { bytes(&v, sizeof v); }
};

// Pins every knot of every table the simulators can build, and the
// analytic PER behind the kPerMpdu path, bit for bit: 16 MCS x {MPDU,
// Block ACK} frames x jitter {0, 2} dB x spatial correlation {0.3
// (indoor), 0.85 (airplane), 0.9 (quadrocopter)}, plus
// ErrorModel::packet_error_rate on -20..60 dB in 1/8 dB steps. The
// digests were recorded when the error-model gains and the SNR grid
// were still configurable, with their defaults; any change to a gain,
// the grid, the quadrature or the saturation early-outs moves them.
TEST(PerTableDigest, EveryKnotAndAnalyticPerIsPinned) {
  const int frame_bits[2] = {mac::MpduFormat{}.mpdu_bits(), mac::kBlockAckBits};
  Fnv1a tables;
  Fnv1a analytic;
  for (const double rho : {0.3, 0.85, 0.9}) {
    PerTableCache cache(rho);
    const ErrorModel em(rho);
    for (int m = 0; m < kNumMcs; ++m) {
      for (const int bits : frame_bits) {
        for (const double jitter : {0.0, 2.0}) {
          const PerTable& t = cache.table(mcs(m), bits, jitter);
          tables.fold(std::int64_t{t.knots()});
          for (int k = 0; k < t.knots(); ++k) tables.fold(t.knot_per(k));
        }
        for (int k = 0; k <= 640; ++k) {
          analytic.fold(em.packet_error_rate(mcs(m), -20.0 + 0.125 * k, bits));
        }
      }
    }
  }
  EXPECT_EQ(tables.h, 0x75922bd5fdfba533ULL);
  EXPECT_EQ(analytic.h, 0x739ad7dcc11294f1ULL);
}

}  // namespace
}  // namespace skyferry::phy
