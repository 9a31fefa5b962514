#include "stats/regression.h"

#include <cmath>
#include <vector>

#include "stats/descriptive.h"

namespace skyferry::stats {

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) noexcept {
  LinearFit f;
  f.n = xs.size();
  if (xs.size() != ys.size() || xs.empty()) return f;

  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    sxx += dx * dx;
    sxy += dx * (ys[i] - my);
  }
  if (sxx == 0.0) {
    f.intercept = my;
    return f;
  }
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;

  // R^2 = 1 - SSres/SStot.
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = f(xs[i]);
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - my) * (ys[i] - my);
  }
  f.r_squared = (ss_tot == 0.0) ? 1.0 : 1.0 - ss_res / ss_tot;
  return f;
}

double Log2Fit::operator()(double x) const noexcept { return a * std::log2(x) + b; }

Log2Fit log2_fit(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> lx;
  lx.reserve(xs.size());
  for (double x : xs) lx.push_back(std::log2(x));
  const LinearFit lin = linear_fit(lx, ys);
  Log2Fit f;
  f.a = lin.slope;
  f.b = lin.intercept;
  f.r_squared = lin.r_squared;
  f.n = lin.n;
  return f;
}

}  // namespace skyferry::stats
