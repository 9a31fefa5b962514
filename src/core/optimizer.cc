#include "core/optimizer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace skyferry::core {
namespace {

OptimizeResult finish(const UtilityFunction& u, double d, int evals, int grid_evals) {
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
  r.grid_evaluated = grid_evals;
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
  return finish(u, s.d, s.evals, hi > lo ? grid_size(opt) : 0);
}

// ---- the pruned grid stage ------------------------------------------------
//
// If s(d) does not increase with d, then on grid points d in [d_a, d_b]
// δ(d) <= δ(d_b) (less distance left to fly), Tship(d) >= Tship(d_b) and
// Ttx(d) = 8·M/s(d) >= Ttx(d_a), so
//   U(d) <= δ(d_b) / (Tship(d_b) + Ttx(d_a)),
// the block bound pruned_grid_scan skips blocks by.

/// Relative slack on the block bound. Every step from a grid index to U
/// is a monotone, correctly rounded IEEE operation (grid_point, max,
/// d0 - d, /v, a·x + b, ·scale, 8·M/s, Tship + Ttx, 1 - ρx, δ/Cdelay)
/// except libm's log2 (the rate) and exp/pow (δ), which are faithful
/// but monotone only to their last ulp. The bound takes each corner's
/// values from the same UtilityFunction::evaluate calls the scan makes,
/// so FP keeps the order the exact argument proves up to those ulps,
/// which 1e-9 exceeds by orders of magnitude. (The cancellation in
/// a·log2(d) + b amplifies an ulp of log2 past the slack only where
/// s(d) is within ~4e-6·|a|·scale of zero, where U is ~0, and libm can
/// misorder only inputs about an ulp apart, not grid points.)
constexpr double kBoundSlack = 1e-9;

/// Whether the bound above holds for `u`: a log fit that does not rise
/// with distance, a positive speed, a non-negative batch, a finite
/// interval. Every failure law qualifies (survival does not increase
/// with distance flown).
bool bound_holds(const UtilityFunction& u) {
  const auto* fit = dynamic_cast<const PaperLogThroughput*>(&u.delay().model());
  const DeliveryParams& p = u.delay().params();
  return fit != nullptr && fit->a() <= 0.0 && fit->scale() >= 0.0 && p.speed_mps > 0.0 &&
         p.mdata_bytes >= 0.0 && std::isfinite(p.min_distance_m) && std::isfinite(p.d0_m);
}

/// The grid stage of golden_grid_search for U by pruned_grid_scan.
/// Precondition: bound_holds(u), lo < hi, n <= kMaxPrunedGrid.
PrunedGridScan pruned_utility_scan(const UtilityFunction& u, double lo, double hi, int n) {
  // The bound's terms at every evaluated point.
  std::array<double, kMaxPrunedGrid> ttx, tship, discount;
  const auto value = [&](int i) {
    const UtilityPoint p = u.evaluate(grid_point(lo, hi, n, i));
    const auto k = static_cast<std::size_t>(i);
    ttx[k] = p.ttx_s;
    tship[k] = p.tship_s;
    discount[k] = p.discount;
    return p.utility;
  };
  const auto block_bound = [&](int a, int b) {
    const auto ka = static_cast<std::size_t>(a);
    const auto kb = static_cast<std::size_t>(b);
    const double den = tship[kb] + ttx[ka];
    if (!(den > 0.0)) return std::numeric_limits<double>::infinity();
    return discount[kb] / den * (1.0 + kBoundSlack);
  };
  return pruned_grid_scan(n, value, block_bound);
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
  const auto f = [&u](double d) { return u(d); };
  const double lo = u.delay().params().min_distance_m;
  const double hi = u.delay().params().d0_m;
  const int n = grid_size(opt);
  if (hi > lo && n <= kMaxPrunedGrid && bound_holds(u)) {
    const PrunedGridScan g = pruned_utility_scan(u, lo, hi, n);
    const ScalarSearchResult s = golden_refine(lo, hi, g.best, f, opt);
    return finish(u, s.d, s.evals, g.evaluated);
  }
  return search(u, f, opt, nullptr);
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
  return finish(u, best_d, n, n);
}

}  // namespace skyferry::core
