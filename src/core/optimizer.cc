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
//   U(d) <= δ(d_b) / (Tship(d_b) + Ttx(d_a)).
// A block whose bound is strictly below the best value evaluated so far
// cannot hold the argmax, nor tie it, so skipping it leaves the scan's
// answer — the first index of the maximum — unchanged.

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

/// Grid points between first-level corners. Measured on the compile's
/// knots: strides 8/16/32 evaluate ~49/37/31 grid points per solve, and
/// 16-32 time alike (the midpoint splits evaluate serially).
constexpr int kCornerStride = 16;

/// Largest grid the pruned stage serves from its fixed block heap; a
/// larger grid scans exhaustively.
constexpr int kMaxPrunedGrid = 256;

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

/// Grid points d_a < d < d_b not yet evaluated, with the corner values
/// their bound needs.
struct Block {
  double bound;
  int a;
  int b;
  double ttx_a;       ///< Ttx at the near corner: the fastest rate
  double tship_b;     ///< Tship at the far corner: the shortest flight
  double discount_b;  ///< δ at the far corner: the likeliest survival
};

double block_bound(double ttx_a, double tship_b, double discount_b) {
  const double den = tship_b + ttx_a;
  if (!(den > 0.0)) return std::numeric_limits<double>::infinity();
  const double bound = discount_b / den * (1.0 + kBoundSlack);
  // NaN never prunes; +inf keeps the heap ordered.
  return std::isnan(bound) ? std::numeric_limits<double>::infinity() : bound;
}

struct PrunedGrid {
  GridBest best;
  int evaluated{0};
};

/// The grid stage of golden_grid_search for U, by branch and bound:
/// evaluate every kCornerStride-th point, keep the blocks between
/// corners in a max-heap by bound, and split the top block at its
/// midpoint until the top bound is strictly below the best value. The
/// best value only grows, so every block left over stays below it.
/// Precondition: bound_holds(u), lo < hi, 2 <= n <= kMaxPrunedGrid.
PrunedGrid pruned_grid_scan(const UtilityFunction& u, double lo, double hi, int n) {
  PrunedGrid out;
  // Evaluation order is not index order, so ties go to the lower index
  // explicitly: the result is the scan's first index of the maximum.
  const auto eval = [&](int i) {
    const UtilityPoint p = u.evaluate(grid_point(lo, hi, n, i));
    ++out.evaluated;
    if (p.utility > out.best.val || (p.utility == out.best.val && i < out.best.i))
      out.best = {i, p.utility};
    return p;
  };
  // Live blocks are disjoint and each holds an interior point.
  std::array<Block, kMaxPrunedGrid / 2> heap;
  int size = 0;
  const auto by_bound = [](const Block& x, const Block& y) { return x.bound < y.bound; };
  const auto push = [&](int a, int b, double ttx_a, double tship_b, double discount_b) {
    if (b - a < 2) return;
    heap[static_cast<std::size_t>(size++)] = {block_bound(ttx_a, tship_b, discount_b), a, b,
                                              ttx_a, tship_b, discount_b};
    std::push_heap(heap.begin(), heap.begin() + size, by_bound);
  };

  UtilityPoint near = eval(0);
  for (int a = 0; a < n - 1;) {
    const int b = std::min(a + kCornerStride, n - 1);
    const UtilityPoint far = eval(b);
    push(a, b, near.ttx_s, far.tship_s, far.discount);
    near = far;
    a = b;
  }
  while (size > 0) {
    std::pop_heap(heap.begin(), heap.begin() + size, by_bound);
    const Block blk = heap[static_cast<std::size_t>(--size)];
    if (blk.bound < out.best.val) break;
    const int m = blk.a + (blk.b - blk.a) / 2;
    const UtilityPoint mid = eval(m);
    push(blk.a, m, blk.ttx_a, mid.tship_s, mid.discount);
    push(m, blk.b, mid.ttx_s, blk.tship_b, blk.discount_b);
  }
  return out;
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
    const PrunedGrid g = pruned_grid_scan(u, lo, hi, n);
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
