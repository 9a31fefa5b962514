// Descriptive statistics: one-pass Welford accumulator and helpers over
// sample vectors. All figure benches reduce raw simulator output through
// this module before printing.
#pragma once

#include <cstddef>
#include <span>

namespace skyferry::stats {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

[[nodiscard]] double mean(std::span<const double> xs) noexcept;

}  // namespace skyferry::stats
