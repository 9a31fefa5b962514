// Solver for the paper's Eq. (2): d_opt = argmax U(d), s.t.
// d_min <= d <= d0. U is concave for small rho but not in general, so we
// grid-scan first and refine the best bracket with golden-section search.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>

#include "core/utility.h"

namespace skyferry::core {

struct OptimizeOptions {
  int grid_points{256};
  double tolerance_m{0.01};
  int max_refine_iters{80};
};

/// Scalar outcome of the shared search schedule below.
struct ScalarSearchResult {
  double d{0.0};    ///< argmax
  double val{0.0};  ///< objective value at d
  int evals{0};     ///< objective evaluations spent
};

namespace detail {
inline constexpr double kGoldenRatioInv = 0.6180339887498949;  // 1/phi
}

/// Size of the coarse grid scan (never fewer than 8 points).
[[nodiscard]] inline int grid_size(const OptimizeOptions& opt) noexcept {
  return std::max(opt.grid_points, 8);
}

/// Point i of the n-point grid over [lo, hi]: the one expression behind
/// every grid scan, bracket end and precomputed grid column.
[[nodiscard]] inline double grid_point(double lo, double hi, int n, int i) noexcept {
  return lo + (hi - lo) * i / (n - 1);
}

/// Outcome of the schedule's grid stage: the first grid index holding
/// the highest value (NaNs never win; -1 when nothing beats it).
struct GridBest {
  int i{0};
  double val{-1.0};
};

/// The schedule's grid stage: scan all n grid values, keep the first
/// index of the maximum.
template <class G>
GridBest grid_scan(int n, G&& grid) {
  GridBest best;
  for (int i = 0; i < n; ++i) {
    const double val = grid(i);
    if (val > best.val) {
      best.val = val;
      best.i = i;
    }
  }
  return best;
}

/// Grid points between the pruned scan's first-level corners. Measured on
/// the policy compile's knots: strides 8/16/32 evaluate ~49/37/31 grid
/// points per solve, and 16-32 time alike (the midpoint splits evaluate
/// serially).
inline constexpr int kCornerStride = 16;

/// Largest grid pruned_grid_scan serves from its fixed block heap; a
/// larger grid scans exhaustively.
inline constexpr int kMaxPrunedGrid = 256;

/// Outcome of pruned_grid_scan: grid_scan's answer and the grid points
/// evaluated to find it.
struct PrunedGridScan {
  GridBest best;
  int evaluated{0};
};

/// The schedule's grid stage by branch and bound: grid_scan's answer
/// (the first index of the maximum of value(i) over 0 <= i < n) without
/// evaluating every point. It evaluates every kCornerStride-th point and
/// the last, keeps the blocks of points between evaluated corners in a
/// max-heap by bound, and opens the top block until its bound is
/// strictly below the best value found. The best value only grows, so
/// every block left over holds no point that beats or ties it.
///
/// `value(i)` returns the objective at grid point i. `block_bound(a, b)`
/// is called only after value(a) and value(b) and must return an upper
/// bound on value(i) for every a < i < b; a NaN bound reads as +inf
/// (never skipped). `Leaf` is the largest block the scan evaluates whole
/// once opened; a larger one is split at its midpoint. Leaf = 1 bisects
/// down to single points, which pays where a point is expensive; where
/// points are cheap the splits' serial divisions cost more than they
/// save, and Leaf = kCornerStride - 1 opens each corner block whole.
/// Grids above kMaxPrunedGrid scan exhaustively.
template <int Leaf = 1, class V, class B>
PrunedGridScan pruned_grid_scan(int n, V&& value, B&& block_bound) {
  static_assert(Leaf >= 1);
  PrunedGridScan out;
  if (n > kMaxPrunedGrid) {
    out.best = grid_scan(n, value);
    out.evaluated = n;
    return out;
  }
  if (n < 1) return out;
  // Evaluation order is not index order, so ties go to the lower index
  // explicitly: the result is the scan's first index of the maximum.
  const auto eval = [&](int i) {
    const double val = value(i);
    ++out.evaluated;
    if (val > out.best.val || (val == out.best.val && i < out.best.i)) out.best = {i, val};
  };
  struct Block {
    double bound;
    int a;
    int b;
  };
  // Live blocks are disjoint and each holds an unevaluated point.
  std::array<Block, kMaxPrunedGrid / 2> heap;
  int size = 0;
  const auto by_bound = [](const Block& x, const Block& y) { return x.bound < y.bound; };
  const auto push = [&](int a, int b) {
    if (b - a < 2) return;
    const double bound = block_bound(a, b);
    heap[static_cast<std::size_t>(size++)] = {
        std::isnan(bound) ? std::numeric_limits<double>::infinity() : bound, a, b};
    std::push_heap(heap.begin(), heap.begin() + size, by_bound);
  };

  eval(0);
  for (int a = 0; a < n - 1;) {
    const int b = std::min(a + kCornerStride, n - 1);
    eval(b);
    push(a, b);
    a = b;
  }
  while (size > 0) {
    std::pop_heap(heap.begin(), heap.begin() + size, by_bound);
    const Block blk = heap[static_cast<std::size_t>(--size)];
    if (blk.bound < out.best.val) break;
    if (blk.b - blk.a - 1 <= Leaf) {
      for (int i = blk.a + 1; i < blk.b; ++i) eval(i);
      continue;
    }
    const int m = blk.a + (blk.b - blk.a) / 2;
    eval(m);
    push(blk.a, m);
    push(m, blk.b);
  }
  return out;
}

/// The schedule's refinement stage: golden-section search inside the
/// grid bracket around `g`, then keep the better of {grid best, refined
/// mid}. `evals` counts the whole schedule (grid_size + refinement),
/// whichever way the grid stage found `g`.
template <class F>
ScalarSearchResult golden_refine(double lo, double hi, GridBest g, F&& f,
                                 const OptimizeOptions& opt) {
  const int n = grid_size(opt);
  int evals = n;
  const double best_d = grid_point(lo, hi, n, g.i);

  // The objective is unimodal between the neighbors of the best grid
  // point even if globally it is not.
  double a = grid_point(lo, hi, n, std::max(g.i - 1, 0));
  double b = grid_point(lo, hi, n, std::min(g.i + 1, n - 1));
  double x1 = b - detail::kGoldenRatioInv * (b - a);
  double x2 = a + detail::kGoldenRatioInv * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  evals += 2;
  for (int i = 0; i < opt.max_refine_iters && (b - a) > opt.tolerance_m; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + detail::kGoldenRatioInv * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - detail::kGoldenRatioInv * (b - a);
      f1 = f(x1);
    }
    ++evals;
  }
  const double mid = 0.5 * (a + b);
  // Keep whichever of {grid best, refined mid} is actually better.
  const double refined = f(mid);
  ++evals;
  const bool take_mid = refined >= g.val;
  ScalarSearchResult out;
  out.d = take_mid ? mid : best_d;
  out.val = take_mid ? refined : g.val;
  out.evals = evals;
  return out;
}

/// The exact search schedule behind optimize(): grid_scan over [lo, hi],
/// then golden_refine. Header-level template so every maximizer that
/// promises bit-identical decisions against optimize() — core::optimize
/// itself, core::optimize_objective, link::optimize_multilink —
/// instantiates this single definition and evaluates the identical FP
/// expressions at the identical points. (optimize() and
/// optimize_multilink find the grid stage's answer with pruned_grid_scan
/// where their bounds hold, and feed it to the same golden_refine.)
/// Degenerate hi <= lo intervals collapse to one evaluation at hi.
///
/// `grid(i)` is the grid-stage hook: it must return exactly
/// f(grid_point(lo, hi, grid_size(opt), i)), so a caller that solves
/// several objectives over one grid can read precomputed values instead
/// of re-evaluating them. The refinement always calls `f`.
template <class G, class F>
ScalarSearchResult golden_grid_search(double lo, double hi, G&& grid, F&& f,
                                      const OptimizeOptions& opt) {
  if (hi <= lo) {
    ScalarSearchResult out;
    out.d = hi;
    out.val = f(hi);
    out.evals = 1;
    return out;
  }
  return golden_refine(lo, hi, grid_scan(grid_size(opt), grid), f, opt);
}

/// The schedule with the grid stage evaluating `f` directly.
template <class F>
ScalarSearchResult golden_grid_search(double lo, double hi, F&& f, const OptimizeOptions& opt) {
  const int n = grid_size(opt);
  return golden_grid_search(
      lo, hi, [&](int i) { return f(grid_point(lo, hi, n, i)); }, f, opt);
}

/// Where the optimum landed relative to the feasible interval [d_min, d0].
/// Exactly one of the three holds — which the former trio of mutually
/// exclusive bools (`interior`/`transmit_now`/`at_floor`) could not
/// express in the type.
enum class Boundary {
  /// Strictly inside (d_min, d0): move before transmitting, but not all
  /// the way to the floor.
  kInterior,
  /// d_opt == d0: transmit immediately.
  kTransmitNow,
  /// d_opt == d_min: ship to the anti-collision floor first.
  kAtFloor,
};

[[nodiscard]] const char* to_string(Boundary b) noexcept;

struct OptimizeResult {
  double d_opt_m{0.0};
  double utility{0.0};
  double cdelay_s{0.0};
  double discount{0.0};
  Boundary boundary{Boundary::kInterior};
  /// Objective evaluations the schedule accounts for: grid_size + the
  /// refinement's (1 when d0 <= d_min). Independent of pruning, so equal
  /// inputs report equal counts on every path that runs the schedule.
  int evaluations{0};
  /// Grid points actually evaluated: grid_size for an exhaustive scan,
  /// fewer when the grid stage pruned, 0 when d0 <= d_min (no grid).
  /// link::optimize_multilink reports its elected link's search here.
  int grid_evaluated{0};
};

/// Maximize a utility function over [d_min, d0]. When the throughput
/// model proves s(d) non-increasing (a PaperLogThroughput with a <= 0 and
/// scale >= 0, v > 0, Mdata >= 0, a finite d0 > d_min, at most 256 grid
/// points) the grid stage skips blocks of grid points whose utility
/// bound is below the best value found; the result is bit-identical to
/// the exhaustive scan.
[[nodiscard]] OptimizeResult optimize(const UtilityFunction& u, OptimizeOptions opt = {});

/// Maximize an arbitrary objective over the same [d_min, d0] interval as
/// `base`, with the same grid-scan + golden-section schedule as
/// optimize(). The result's `utility` is the objective value at the
/// optimum; `cdelay_s`/`discount` still describe `base` there. Used by
/// the mid-flight re-decision policy, whose objective folds the
/// transfer-loiter failure exposure into the paper's approach-only U(d).
[[nodiscard]] OptimizeResult optimize_objective(const UtilityFunction& base,
                                                const std::function<double(double)>& objective,
                                                OptimizeOptions opt = {});

/// Brute-force argmax on a fine grid (reference implementation used by
/// the property tests to validate `optimize`).
[[nodiscard]] OptimizeResult optimize_brute_force(const UtilityFunction& u, int points = 20000);

}  // namespace skyferry::core
