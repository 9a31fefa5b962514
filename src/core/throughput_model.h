// Distance-dependent throughput models s(d) — the basic determinant of
// the delayed-gratification decision (paper Sec. 3/4).
//
// PaperLogThroughput carries the paper's published fits:
//   airplane:      s(d) = 1e6 * (-5.56 * log2(d) + 49)   [R^2 = 0.90]
//   quadrocopter:  s(d) = 1e6 * (-10.5 * log2(d) + 73)   [R^2 = 0.96]
// TableThroughput interpolates empirical medians (e.g. produced by the
// PHY+MAC simulator), and SpeedAwareThroughput adds the mobility penalty
// measured in Fig. 7.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace skyferry::core {

/// Interface: median application-layer throughput [bit/s] at distance d.
class ThroughputModel {
 public:
  virtual ~ThroughputModel() = default;

  /// Throughput [bit/s] at distance d [m]; never negative.
  [[nodiscard]] virtual double throughput_bps(double distance_m) const noexcept = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Largest distance with positive throughput (link range), found by
  /// bisection by default.
  [[nodiscard]] virtual double max_range_m() const noexcept;
};

/// The paper's fit s(d) = scale * (a * log2(d) + b), clamped at >= 0, with
/// d clamped below at `min_distance_m`. The one FP expression behind
/// PaperLogThroughput and the 802.11n link backend's rate curve, so a
/// single-802.11n link decision is bit-identical to core::optimize().
[[nodiscard]] inline double paper_log_rate_bps(double a, double b, double scale,
                                               double min_distance_m,
                                               double distance_m) noexcept {
  const double d = std::max(distance_m, min_distance_m);
  return std::max(scale * (a * std::log2(d) + b), 0.0);
}

/// Largest distance with positive paper_log_rate_bps: 2^(b/|a|) for a
/// falling fit, the 100 km search cap otherwise.
[[nodiscard]] inline double paper_log_max_range_m(double a, double b) noexcept {
  if (a >= 0.0) return 100e3;
  // a*log2(d) + b = 0  =>  d = 2^(-b/a) = 2^(b/|a|).
  return std::exp2(-b / a);
}

/// s(d) = scale * (a * log2(d) + b), clamped at >= 0, with distance
/// clamped below at `min_distance_m` (the paper's 20 m anti-collision
/// floor: moving closer than that is not allowed, so the model saturates).
class PaperLogThroughput final : public ThroughputModel {
 public:
  PaperLogThroughput(double a, double b, std::string name, double scale = 1e6,
                     double min_distance_m = 20.0) noexcept
      : a_(a), b_(b), scale_(scale), min_d_(min_distance_m), name_(std::move(name)) {}

  /// The paper's airplane fit.
  static PaperLogThroughput airplane() { return {-5.56, 49.0, "paper-airplane"}; }
  /// The paper's quadrocopter fit.
  static PaperLogThroughput quadrocopter() { return {-10.5, 73.0, "paper-quadrocopter"}; }

  [[nodiscard]] double throughput_bps(double distance_m) const noexcept override {
    return paper_log_rate_bps(a_, b_, scale_, min_d_, distance_m);
  }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] double max_range_m() const noexcept override {
    return paper_log_max_range_m(a_, b_);
  }

  [[nodiscard]] double a() const noexcept { return a_; }
  [[nodiscard]] double b() const noexcept { return b_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] double min_distance_m() const noexcept { return min_d_; }

 private:
  double a_;
  double b_;
  double scale_;
  double min_d_;
  std::string name_;
};

/// Piecewise-linear interpolation over measured (distance, throughput)
/// medians; clamps outside the table. Points must be strictly increasing
/// in distance.
class TableThroughput final : public ThroughputModel {
 public:
  TableThroughput(std::vector<std::pair<double, double>> points, std::string name);

  [[nodiscard]] double throughput_bps(double distance_m) const noexcept override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] double max_range_m() const noexcept override;

  [[nodiscard]] const std::vector<std::pair<double, double>>& points() const noexcept {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
  std::string name_;
};

/// Multiplicative mobility degradation g(v) = 1 / (1 + (v/v_half)^2):
/// hovering keeps the full rate; at v_half the rate halves. Calibrated to
/// the quadrocopter speed sweep of Fig. 7 (right): ~1/3 at 5 m/s, ~0.1
/// at 10 m/s, near-dead at 15 m/s.
struct SpeedDegradation {
  double v_half_mps{3.5};

  [[nodiscard]] double factor(double speed_mps) const noexcept;
};

/// Combines a hover model with the mobility penalty: s(d, v).
class SpeedAwareThroughput {
 public:
  SpeedAwareThroughput(const ThroughputModel& base, SpeedDegradation degradation = {}) noexcept
      : base_(base), deg_(degradation) {}

  [[nodiscard]] double throughput_bps(double distance_m, double speed_mps) const noexcept {
    return base_.throughput_bps(distance_m) * deg_.factor(speed_mps);
  }
  [[nodiscard]] const ThroughputModel& base() const noexcept { return base_; }
  [[nodiscard]] const SpeedDegradation& degradation() const noexcept { return deg_; }

 private:
  const ThroughputModel& base_;
  SpeedDegradation deg_;
};

}  // namespace skyferry::core
