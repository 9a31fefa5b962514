#include "phy/per.h"

#include <algorithm>
#include <cmath>

namespace skyferry::phy {

double q_function(double x) noexcept { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

namespace {

/// Effective SNR gain [dB] of the convolutional code by rate: 1/2, 2/3,
/// 3/4, 5/6 map to decreasing gains.
constexpr double kCodingGainHalfDb = 5.0;
constexpr double kCodingGainTwoThirdsDb = 4.0;
constexpr double kCodingGainThreeQuartersDb = 3.5;
constexpr double kCodingGainFiveSixthsDb = 3.0;

/// Diversity gain [dB] of Alamouti STBC on single-stream MCS.
constexpr double kStbcGainDb = 3.0;

/// SDM penalties: 3 dB power split per stream plus an inter-stream
/// interference penalty that grows with spatial correlation
/// (1 = fully correlated LoS channel, 0 = rich scattering).
constexpr double kSdmPowerSplitDb = 3.0;
constexpr double kSdmMaxCorrelationPenaltyDb = 12.0;

constexpr double coding_gain_db(CodingRate r) noexcept {
  if (r.num == 1 && r.den == 2) return kCodingGainHalfDb;
  if (r.num == 2 && r.den == 3) return kCodingGainTwoThirdsDb;
  if (r.num == 3 && r.den == 4) return kCodingGainThreeQuartersDb;
  return kCodingGainFiveSixthsDb;
}

/// Canonical Gray-coded square M-QAM BER approximation over AWGN:
/// BER ≈ 4/log2(M) * (1 - 1/sqrt(M)) * Q( sqrt(3*SNR/(M-1)) ).
double mqam_ber(int m_points, double snr_linear) noexcept {
  const double log2m = std::log2(static_cast<double>(m_points));
  const double coef = 4.0 / log2m * (1.0 - 1.0 / std::sqrt(static_cast<double>(m_points)));
  return coef * q_function(std::sqrt(3.0 * snr_linear / (m_points - 1)));
}

}  // namespace

double uncoded_ber(Modulation m, double snr_linear) noexcept {
  const double s = std::max(snr_linear, 0.0);
  double ber = 0.5;
  switch (m) {
    case Modulation::kBpsk:
      ber = q_function(std::sqrt(2.0 * s));
      break;
    case Modulation::kQpsk:
      // Gray-coded QPSK: per-bit error equals BPSK at the same Eb/N0; at
      // equal symbol SNR each of the two bits sees half the symbol energy.
      ber = q_function(std::sqrt(s));
      break;
    case Modulation::kQam16:
      ber = mqam_ber(16, s);
      break;
    case Modulation::kQam64:
      ber = mqam_ber(64, s);
      break;
  }
  return std::clamp(ber, 0.0, 0.5);
}

ErrorModel::ErrorModel(double spatial_correlation) noexcept
    : spatial_correlation_(std::clamp(spatial_correlation, 0.0, 1.0)) {}

double ErrorModel::effective_snr_db(const McsInfo& m, double snr_db) const noexcept {
  double eff = snr_db + coding_gain_db(m.coding);
  if (m.is_sdm()) {
    eff -= kSdmPowerSplitDb;
    eff -= kSdmMaxCorrelationPenaltyDb * spatial_correlation_;
  } else {
    eff += kStbcGainDb;
  }
  return eff;
}

double ErrorModel::bit_error_rate(const McsInfo& m, double snr_db) const noexcept {
  const double eff_db = effective_snr_db(m, snr_db);
  const double s = std::pow(10.0, eff_db / 10.0);
  return uncoded_ber(m.modulation, s);
}

namespace {

/// Effective-SNR bounds [dB] outside which the uncoded BER is saturated:
/// above `zero_ber_db` the BER is < 1e-20 (Q(9.5)·coef), below
/// `half_ber_db` it is >= 0.29. Both bounds are conservative inversions
/// of the closed-form BER curves above.
struct SaturationBounds {
  double half_ber_db;
  double zero_ber_db;
};

constexpr SaturationBounds saturation_bounds(Modulation m) noexcept {
  switch (m) {
    case Modulation::kBpsk: return {-8.2, 17.0};
    case Modulation::kQpsk: return {-5.2, 20.0};
    case Modulation::kQam16: return {-3.9, 27.0};
    case Modulation::kQam64: return {-29.8, 33.1};
  }
  return {-1e300, 1e300};
}

}  // namespace

double ErrorModel::packet_error_rate(const McsInfo& m, double snr_db, int bits) const noexcept {
  const double eff_db = effective_snr_db(m, snr_db);
  // Saturation early-outs skip the pow/erfc/log1p chain where the result
  // is already pinned in double precision: above zero_ber_db the PER is
  // below bits * 1e-20 (absolute error <= ~1e-14 for any real frame);
  // below half_ber_db the BER is >= 0.29, so for bits >= 256 the success
  // probability (1-BER)^bits < 1e-38 and the PER rounds to exactly 1.0 —
  // the same value the full chain returns.
  const SaturationBounds sat = saturation_bounds(m.modulation);
  if (eff_db >= sat.zero_ber_db) return 0.0;
  if (eff_db <= sat.half_ber_db && bits >= 256) return 1.0;

  const double s = std::pow(10.0, eff_db / 10.0);
  const double ber = uncoded_ber(m.modulation, s);
  if (ber <= 0.0) return 0.0;
  if (ber >= 0.5) return 1.0;
  // PER = 1 - (1-BER)^bits, computed in log space for stability.
  const double log_ok = static_cast<double>(bits) * std::log1p(-ber);
  return std::clamp(1.0 - std::exp(log_ok), 0.0, 1.0);
}

}  // namespace skyferry::phy
