// Least-squares fitting. The paper fits a logarithmic throughput model
// s(d) = a*log2(d) + b to median throughput per distance bin and reports
// the coefficient of determination R^2 (Sec. 4). LogFit reproduces exactly
// that pipeline so our simulated links can be validated against the
// paper's published coefficients.
#pragma once

#include <span>

namespace skyferry::stats {

/// Result of a univariate linear least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope{0.0};
  double intercept{0.0};
  double r_squared{0.0};
  std::size_t n{0};

  [[nodiscard]] double operator()(double x) const noexcept { return slope * x + intercept; }
};

/// Ordinary least squares on (xs, ys). Sizes must match; fewer than two
/// distinct x values yields slope 0 and intercept = mean(y).
[[nodiscard]] LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) noexcept;

/// Fit y = a*log2(x) + b (the paper's throughput model shape).
/// All xs must be > 0.
struct Log2Fit {
  double a{0.0};  ///< slope against log2(x)
  double b{0.0};  ///< intercept
  double r_squared{0.0};
  std::size_t n{0};

  [[nodiscard]] double operator()(double x) const noexcept;
};

[[nodiscard]] Log2Fit log2_fit(std::span<const double> xs, std::span<const double> ys);

}  // namespace skyferry::stats
