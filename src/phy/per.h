// SNR -> BER -> packet-error-rate model per MCS.
//
// Uncoded BER uses the standard Gray-coded M-QAM/PSK approximations over
// AWGN; convolutional coding is modeled as an effective-SNR gain per
// coding rate (union-bound calibrated). STBC single-stream transmission
// earns a diversity gain; two-stream SDM pays a power-split penalty plus
// a spatial-correlation penalty — aerial LoS channels are rank-poor,
// which is exactly why the paper's MCS8+ underperform (Sec. 3.1).
#pragma once

#include "phy/mcs.h"

namespace skyferry::phy {

/// Q-function (tail of the standard normal).
[[nodiscard]] double q_function(double x) noexcept;

/// Uncoded bit error rate of `m` at per-symbol SNR [linear].
[[nodiscard]] double uncoded_ber(Modulation m, double snr_linear) noexcept;

/// The error model's gains are constants (phy/per.cc); the one input
/// that varies between platforms is the channel's spatial correlation.
class ErrorModel {
 public:
  /// `spatial_correlation` is clamped to [0, 1].
  explicit ErrorModel(double spatial_correlation) noexcept;

  /// Effective post-processing SNR [dB] for an MCS given raw channel SNR
  /// [dB], accounting for coding gain, STBC or SDM adjustments.
  [[nodiscard]] double effective_snr_db(const McsInfo& m, double snr_db) const noexcept;

  /// Coded BER for an MCS at raw channel SNR [dB].
  [[nodiscard]] double bit_error_rate(const McsInfo& m, double snr_db) const noexcept;

  /// Packet error rate of an MPDU of `bits` at raw channel SNR [dB].
  /// Saturated regions (BER ≈ 0 / BER ≈ 0.5) early-out without touching
  /// erfc/pow; see phy::PerTable for the table-driven hot path.
  [[nodiscard]] double packet_error_rate(const McsInfo& m, double snr_db, int bits) const noexcept;

  /// Spatial correlation of the MIMO channel in [0,1]; higher = more
  /// LoS-dominant = worse for SDM.
  [[nodiscard]] double spatial_correlation() const noexcept { return spatial_correlation_; }

 private:
  double spatial_correlation_;
};

}  // namespace skyferry::phy
