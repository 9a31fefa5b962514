#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace skyferry::stats {

Ecdf::Ecdf(std::span<const double> xs) {
  // Non-finite samples would break the sorted invariant upper_bound
  // relies on (NaN compares unordered); the ECDF is over finite draws.
  sorted_.reserve(xs.size());
  for (double x : xs) {
    if (std::isfinite(x)) sorted_.push_back(x);
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const noexcept {
  if (std::isnan(q)) return std::numeric_limits<double>::quiet_NaN();
  if (sorted_.empty()) return 0.0;
  const double qc = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::ceil(qc * static_cast<double>(sorted_.size())));
  return sorted_[idx == 0 ? 0 : std::min(idx - 1, sorted_.size() - 1)];
}

double Ecdf::ks_distance(const Ecdf& other) const noexcept {
  double d = 0.0;
  for (double x : sorted_) d = std::max(d, std::abs((*this)(x) - other(x)));
  for (double x : other.sorted_) d = std::max(d, std::abs((*this)(x) - other(x)));
  return d;
}

}  // namespace skyferry::stats
