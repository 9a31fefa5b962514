#include "stats/descriptive.h"

#include <cmath>

namespace skyferry::stats {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean(std::span<const double> xs) noexcept {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return rs.mean();
}

}  // namespace skyferry::stats
