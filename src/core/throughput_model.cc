#include "core/throughput_model.h"

#include <algorithm>
#include <cassert>

namespace skyferry::core {

double ThroughputModel::max_range_m() const noexcept {
  // Bisect the largest d with s(d) > 0 in [1 m, 100 km].
  double lo = 1.0;
  double hi = 100e3;
  if (throughput_bps(hi) > 0.0) return hi;
  if (throughput_bps(lo) <= 0.0) return 0.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (throughput_bps(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TableThroughput::TableThroughput(std::vector<std::pair<double, double>> points, std::string name)
    : points_(std::move(points)), name_(std::move(name)) {
  assert(!points_.empty());
  for (std::size_t i = 1; i < points_.size(); ++i) {
    assert(points_[i].first > points_[i - 1].first);
  }
}

double TableThroughput::throughput_bps(double distance_m) const noexcept {
  if (distance_m <= points_.front().first) return std::max(points_.front().second, 0.0);
  if (distance_m >= points_.back().first) return std::max(points_.back().second, 0.0);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), distance_m,
      [](const std::pair<double, double>& p, double d) { return p.first < d; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double w = (distance_m - lo.first) / (hi.first - lo.first);
  return std::max(lo.second + w * (hi.second - lo.second), 0.0);
}

double TableThroughput::max_range_m() const noexcept {
  // Last distance with positive throughput, interpolating the final
  // zero crossing if present.
  for (std::size_t i = points_.size(); i-- > 1;) {
    if (points_[i].second > 0.0) return points_[i].first;
    if (points_[i - 1].second > 0.0) {
      const auto& lo = points_[i - 1];
      const auto& hi = points_[i];
      const double w = lo.second / (lo.second - hi.second);
      return lo.first + w * (hi.first - lo.first);
    }
  }
  return points_.front().second > 0.0 ? points_.front().first : 0.0;
}

double SpeedDegradation::factor(double speed_mps) const noexcept {
  const double r = speed_mps / v_half_mps;
  return 1.0 / (1.0 + r * r);
}

}  // namespace skyferry::core
