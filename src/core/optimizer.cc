#include "core/optimizer.h"

#include <algorithm>
#include <cmath>

namespace skyferry::core {
namespace {

OptimizeResult finish(const UtilityFunction& u, double d, int evals) {
  OptimizeResult r;
  const UtilityPoint p = u.evaluate(d);
  r.d_opt_m = d;
  r.utility = p.utility;
  r.cdelay_s = p.cdelay_s;
  r.discount = p.discount;
  const double lo = u.delay().params().min_distance_m;
  const double hi = u.delay().params().d0_m;
  const double eps = 1e-6 * std::max(hi - lo, 1.0);
  // In the degenerate hi <= lo interval both ends coincide; classify as
  // transmit-now, matching the precedence the planner always applied.
  if (d >= hi - eps) {
    r.boundary = Boundary::kTransmitNow;
  } else if (d <= lo + eps) {
    r.boundary = Boundary::kAtFloor;
  } else {
    r.boundary = Boundary::kInterior;
  }
  r.evaluations = evals;
  return r;
}

// Shared search: the golden_grid_search schedule from the header. `f`
// is the scalar objective being maximized (the plain paper utility for
// optimize(), an exposure-weighted variant for optimize_objective());
// the decomposition fields of the result always come from `u` via
// finish().
template <class F>
OptimizeResult search(const UtilityFunction& u, F&& f, OptimizeOptions opt, double* best_val) {
  const double lo = u.delay().params().min_distance_m;
  const double hi = u.delay().params().d0_m;
  const ScalarSearchResult s = golden_grid_search(lo, hi, f, opt);
  if (best_val) *best_val = s.val;
  return finish(u, s.d, s.evals);
}

}  // namespace

const char* to_string(Boundary b) noexcept {
  switch (b) {
    case Boundary::kInterior:
      return "interior";
    case Boundary::kTransmitNow:
      return "transmit-now";
    case Boundary::kAtFloor:
      return "at-floor";
  }
  return "?";
}

OptimizeResult optimize(const UtilityFunction& u, OptimizeOptions opt) {
  return search(u, [&u](double d) { return u(d); }, opt, nullptr);
}

OptimizeResult optimize_objective(const UtilityFunction& base,
                                  const std::function<double(double)>& objective,
                                  OptimizeOptions opt) {
  double best = 0.0;
  OptimizeResult r = search(base, [&objective](double d) { return objective(d); }, opt, &best);
  r.utility = best;  // report the objective actually maximized, not base U
  return r;
}

OptimizeResult optimize_brute_force(const UtilityFunction& u, int points) {
  const double lo = u.delay().params().min_distance_m;
  const double hi = u.delay().params().d0_m;
  double best_d = lo;
  double best_u = -1.0;
  const int n = std::max(points, 2);
  for (int i = 0; i < n; ++i) {
    const double d = grid_point(lo, hi, n, i);
    const double val = u(d);
    if (val > best_u) {
      best_u = val;
      best_d = d;
    }
  }
  return finish(u, best_d, n);
}

}  // namespace skyferry::core
