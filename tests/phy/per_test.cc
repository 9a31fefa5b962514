#include "phy/per.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace skyferry::phy {
namespace {

TEST(QFunction, KnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.1587, 1e-3);
  EXPECT_NEAR(q_function(3.0), 0.00135, 1e-4);
  EXPECT_NEAR(q_function(-1.0), 0.8413, 1e-3);
}

TEST(UncodedBer, DecreasesWithSnr) {
  for (auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16, Modulation::kQam64}) {
    double prev = 1.0;
    for (double snr_db = -5.0; snr_db <= 30.0; snr_db += 1.0) {
      const double s = std::pow(10.0, snr_db / 10.0);
      const double ber = uncoded_ber(m, s);
      EXPECT_LE(ber, prev + 1e-15);
      EXPECT_GE(ber, 0.0);
      EXPECT_LE(ber, 0.5);
      prev = ber;
    }
  }
}

TEST(UncodedBer, HigherOrderModulationIsWorse) {
  const double s = std::pow(10.0, 12.0 / 10.0);  // 12 dB
  EXPECT_LT(uncoded_ber(Modulation::kBpsk, s), uncoded_ber(Modulation::kQpsk, s));
  EXPECT_LT(uncoded_ber(Modulation::kQpsk, s), uncoded_ber(Modulation::kQam16, s));
  EXPECT_LT(uncoded_ber(Modulation::kQam16, s), uncoded_ber(Modulation::kQam64, s));
}

TEST(UncodedBer, BpskKnownPoint) {
  // BPSK at 9.6 dB Eb/N0: BER ~ 1e-5 (classic waterfall point).
  const double s = std::pow(10.0, 9.6 / 10.0);
  const double ber = uncoded_ber(Modulation::kBpsk, s);
  EXPECT_GT(ber, 1e-6);
  EXPECT_LT(ber, 1e-4);
}

class PerMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(PerMonotonicityTest, PerDecreasesWithSnr) {
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(GetParam());
  const int bits = 1540 * 8;
  double prev = 1.0;
  for (double snr = -10.0; snr <= 45.0; snr += 0.5) {
    const double per = em.packet_error_rate(m, snr, bits);
    EXPECT_LE(per, prev + 1e-12) << "snr=" << snr;
    EXPECT_GE(per, 0.0);
    EXPECT_LE(per, 1.0);
    prev = per;
  }
  // Extremes pin to ~1 and ~0.
  EXPECT_GT(em.packet_error_rate(m, -10.0, bits), 0.99);
  EXPECT_LT(em.packet_error_rate(m, 45.0, bits), 0.05);
}

TEST_P(PerMonotonicityTest, PerNonDecreasingInBits) {
  // Longer frames can only fail more: PER = 1 - (1-BER)^bits.
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(GetParam());
  for (double snr = -10.0; snr <= 45.0; snr += 1.5) {
    double prev = 0.0;
    for (int bits = 256; bits <= 16384; bits *= 2) {
      const double per = em.packet_error_rate(m, snr, bits);
      EXPECT_GE(per, prev - 1e-12) << "snr=" << snr << " bits=" << bits;
      prev = per;
    }
  }
}

TEST_P(PerMonotonicityTest, SaturationEarlyOutMatchesLogDomainFormula) {
  // The BER≈0 / BER≈0.5 early-outs must return what the full
  // pow/erfc/log1p chain would: rebuild the PER from the (un-shortcut)
  // public BER and compare across the whole SNR range, early-out
  // regions included.
  const ErrorModel em(0.9);
  const McsInfo& m = mcs(GetParam());
  const int bits = 1540 * 8;
  for (double snr = -20.0; snr <= 50.0; snr += 0.05) {
    const double ber = em.bit_error_rate(m, snr);
    const double ref = (ber <= 0.0) ? 0.0
                                    : std::clamp(1.0 - std::exp(bits * std::log1p(-ber)), 0.0, 1.0);
    EXPECT_NEAR(em.packet_error_rate(m, snr, bits), ref, 1e-12) << "snr=" << snr;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMcs, PerMonotonicityTest, ::testing::Range(0, 16));

TEST(ErrorModel, HigherMcsNeedsMoreSnr) {
  const ErrorModel em(0.9);
  const int bits = 1540 * 8;
  // SNR where PER crosses 0.5 should increase with MCS 0..7.
  auto snr_at_half = [&](int mcs_index) {
    for (double snr = -10.0; snr <= 50.0; snr += 0.1) {
      if (em.packet_error_rate(mcs(mcs_index), snr, bits) < 0.5) return snr;
    }
    return 50.0;
  };
  double prev = snr_at_half(0);
  for (int i = 1; i < 8; ++i) {
    const double cur = snr_at_half(i);
    EXPECT_GE(cur, prev - 0.2) << "mcs" << i;
    prev = cur;
  }
}

TEST(ErrorModel, StbcBeatsSdmInCorrelatedChannel) {
  // MCS1 (single-stream QPSK 1/2 + STBC) vs MCS8 (two-stream BPSK 1/2):
  // same PHY rate; in a rank-poor aerial channel STBC must win.
  const ErrorModel em(0.9);
  const int bits = 1540 * 8;
  for (double snr = 5.0; snr <= 25.0; snr += 5.0) {
    EXPECT_LE(em.packet_error_rate(mcs(1), snr, bits),
              em.packet_error_rate(mcs(8), snr, bits))
        << snr;
  }
}

TEST(ErrorModel, SdmPenaltyShrinksWithScattering) {
  const ErrorModel corr(0.95);
  const ErrorModel rich(0.1);
  const int bits = 1540 * 8;
  EXPECT_GT(corr.packet_error_rate(mcs(8), 18.0, bits),
            rich.packet_error_rate(mcs(8), 18.0, bits));
  // Single-stream rates are unaffected by correlation.
  EXPECT_DOUBLE_EQ(corr.packet_error_rate(mcs(3), 18.0, bits),
                   rich.packet_error_rate(mcs(3), 18.0, bits));
}

TEST(ErrorModel, LongerPacketsFailMore) {
  const ErrorModel em(0.9);
  EXPECT_GT(em.packet_error_rate(mcs(3), 14.0, 12000 * 8),
            em.packet_error_rate(mcs(3), 14.0, 100 * 8));
}

TEST(ErrorModel, SpatialCorrelationClamped) {
  EXPECT_DOUBLE_EQ(ErrorModel(5.0).spatial_correlation(), 1.0);
  EXPECT_DOUBLE_EQ(ErrorModel(-2.0).spatial_correlation(), 0.0);
}

TEST(ErrorModel, EffectiveSnrReflectsGains) {
  const ErrorModel em(1.0);
  // Single stream: + coding gain + STBC gain.
  EXPECT_GT(em.effective_snr_db(mcs(0), 10.0), 10.0);
  // SDM at full correlation: heavy penalty.
  EXPECT_LT(em.effective_snr_db(mcs(8), 10.0), 10.0);
}

}  // namespace
}  // namespace skyferry::phy
