// Median-SNR model for aerial line-of-sight links.
//
// The paper reduces the 802.11n aerial link to a distance-dependent median
// throughput; underneath that sits a median received SNR falling roughly
// linearly in log-distance. AerialSnrModel is calibrated so that the full
// PHY+MAC simulator reproduces the paper's fitted median throughputs
// (s_air, s_quad) — see DESIGN.md §4 and tests/phy/calibration_test.cc.
#pragma once

namespace skyferry::phy {

/// Median *effective* SNR [dB] versus distance for an aerial link:
/// snr(d) = a - b*log2(d). "Effective" folds in everything that degrades
/// small-UAV links beyond free space (airframe shadowing, antenna
/// orientation, ground reflections), which is how the measured medians
/// behave. Calibration constants are chosen per platform.
class AerialSnrModel {
 public:
  AerialSnrModel(double a_db, double b_db_per_octave) noexcept : a_(a_db), b_(b_db_per_octave) {}

  /// Calibrated airplane link (Swinglet pair, 80-100 m altitude).
  /// Constants chosen so the simulated auto-rate medians regress to the
  /// paper's airplane fit (bench/calibrate_channel).
  static AerialSnrModel airplane() noexcept { return {35.43, 4.31}; }
  /// Calibrated quadrocopter link (Arducopter pair, 10 m altitude).
  static AerialSnrModel quadrocopter() noexcept { return {44.20, 6.68}; }
  /// Indoor lab reference (paper: ~176 Mb/s in the lab): high flat SNR.
  static AerialSnrModel indoor() noexcept { return {45.0, 1.0}; }

  /// Median SNR [dB] at distance d [m]; d clamped to >= 1 m.
  [[nodiscard]] double median_snr_db(double distance_m) const noexcept;

 private:
  double a_;
  double b_;
};

}  // namespace skyferry::phy
