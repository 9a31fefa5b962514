// Empirical CDFs — the tool needed to report measured throughput
// distributions (the paper shows boxplots; downstream users often want
// CDFs).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace skyferry::stats {

/// Empirical cumulative distribution function over a sample.
/// Non-finite inputs are dropped at construction (`size()` counts the
/// kept samples).
class Ecdf {
 public:
  explicit Ecdf(std::span<const double> xs);

  /// F(x) = fraction of samples <= x.
  [[nodiscard]] double operator()(double x) const noexcept;

  /// Generalized inverse: smallest sample x with F(x) >= q, q in (0,1]
  /// (clamped; q=0 returns the minimum, NaN q returns NaN).
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] const std::vector<double>& sorted_samples() const noexcept { return sorted_; }

  /// Kolmogorov-Smirnov distance to another ECDF.
  [[nodiscard]] double ks_distance(const Ecdf& other) const noexcept;

 private:
  std::vector<double> sorted_;
};

}  // namespace skyferry::stats
