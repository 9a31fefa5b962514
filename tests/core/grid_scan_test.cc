// core::pruned_grid_scan on its own: synthetic value arrays and valid
// block bounds, with no utility model behind them. Every case must land
// on grid_scan's first index of the maximum (and its value), whatever
// the ties, NaNs, infinite or NaN bounds and dead blocks, at every leaf
// width the solvers use; block_bound may only be asked about blocks
// whose corners are already evaluated.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "support/proptest.h"

namespace skyferry {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// How a case turns the tightest valid bound into the one it hands over.
enum class BoundKind {
  kTight,    ///< the largest non-NaN value strictly inside (-inf when none)
  kLoose,    ///< tight, raised by a random margin
  kInf,      ///< +inf everywhere: nothing is ever skipped
  kNaN,      ///< NaN everywhere: read as +inf
  kMixed,    ///< a random one of the above per block
};

/// The largest non-NaN value strictly between a and b: the tightest
/// bound a caller may return.
double tight_bound(const std::vector<double>& v, int a, int b) {
  double m = -kInf;
  for (int i = a + 1; i < b; ++i) {
    if (v[static_cast<std::size_t>(i)] > m) m = v[static_cast<std::size_t>(i)];
  }
  return m;
}

struct ScanOutcome {
  core::PrunedGridScan scan;
  bool bound_before_corners{false};  ///< block_bound asked before value(a) or value(b)
  int revisits{0};                   ///< value(i) asked twice for one i
};

template <int Leaf, class Bound>
ScanOutcome run_scan(const std::vector<double>& v, Bound&& bound) {
  ScanOutcome out;
  std::vector<char> seen(v.size(), 0);
  const auto value = [&](int i) {
    char& s = seen[static_cast<std::size_t>(i)];
    if (s) ++out.revisits;
    s = 1;
    return v[static_cast<std::size_t>(i)];
  };
  const auto block_bound = [&](int a, int b) {
    if (!seen[static_cast<std::size_t>(a)] || !seen[static_cast<std::size_t>(b)])
      out.bound_before_corners = true;
    return bound(a, b);
  };
  out.scan = core::pruned_grid_scan<Leaf>(static_cast<int>(v.size()), value, block_bound);
  return out;
}

/// Empty when the pruned scan agrees with grid_scan bit for bit and kept
/// its contract, else what went wrong.
template <int Leaf, class Bound>
std::string check_scan(const std::vector<double>& v, Bound&& bound) {
  const int n = static_cast<int>(v.size());
  const core::GridBest want =
      core::grid_scan(n, [&](int i) { return v[static_cast<std::size_t>(i)]; });
  const ScanOutcome got = run_scan<Leaf>(v, bound);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const std::string leaf = " (leaf " + std::to_string(Leaf) + ", n " + std::to_string(n) + ")";
  if (got.scan.best.i != want.i)
    return "index " + std::to_string(got.scan.best.i) + " != " + std::to_string(want.i) + leaf;
  if (bits(got.scan.best.val) != bits(want.val)) return "value differs" + leaf;
  if (got.bound_before_corners) return "block_bound before its corners" + leaf;
  if (got.revisits != 0) return "a point evaluated twice" + leaf;
  if (got.scan.evaluated < 0 || got.scan.evaluated > std::max(n, 0)) return "evaluated" + leaf;
  if (n > core::kMaxPrunedGrid && got.scan.evaluated != n) return "large grid pruned" + leaf;
  return {};
}

/// check_scan at both leaf widths the solvers use and one in between.
template <class Bound>
std::string check_all_leaves(const std::vector<double>& v, Bound&& bound) {
  if (std::string d = check_scan<1>(v, bound); !d.empty()) return d;
  if (std::string d = check_scan<4>(v, bound); !d.empty()) return d;
  return check_scan<core::kCornerStride - 1>(v, bound);
}

std::string check_tight(const std::vector<double>& v) {
  return check_all_leaves(v, [&](int a, int b) { return tight_bound(v, a, b); });
}

TEST(PrunedGridScan, TwoPointsAndEmptyGrids) {
  for (const std::vector<double>& v : std::vector<std::vector<double>>{
           {}, {0.5}, {kNaN}, {0.1, 0.2}, {0.2, 0.1}, {0.3, 0.3}, {kNaN, 0.4}, {-2.0, -3.0}}) {
    EXPECT_EQ(check_tight(v), "");
  }
  const ScanOutcome two = run_scan<1>(std::vector<double>{0.1, 0.2}, [](int, int) { return kInf; });
  EXPECT_EQ(two.scan.evaluated, 2);
}

// The maximum appears twice, the earlier copy deep inside a block whose
// tight bound equals the best value exactly: that block must be opened,
// and the lower index must win.
TEST(PrunedGridScan, BoundEqualToTheBestValueIsNeverSkipped) {
  for (const int n : {33, 64, 256}) {
    std::vector<double> v(static_cast<std::size_t>(n), 0.25);
    v[static_cast<std::size_t>(n - 1)] = 0.75;  // a corner: found first
    v[5] = 0.75;                                // inside the first block
    EXPECT_EQ(check_tight(v), "") << n;
    const ScanOutcome got =
        run_scan<1>(v, [&](int a, int b) { return tight_bound(v, a, b); });
    EXPECT_EQ(got.scan.best.i, 5);
    EXPECT_LT(got.scan.evaluated, n);  // the other blocks bound at 0.25 are skipped
  }
}

TEST(PrunedGridScan, ExactTiesKeepTheFirstIndex) {
  const int n = 256;
  std::vector<double> v(static_cast<std::size_t>(n), 0.0);
  for (const int i : {200, 17, 150, 99}) v[static_cast<std::size_t>(i)] = 1.0;
  EXPECT_EQ(check_tight(v), "");
  EXPECT_EQ(run_scan<1>(v, [&](int a, int b) { return tight_bound(v, a, b); }).scan.best.i, 17);
  // All equal: index 0, whatever gets skipped.
  const std::vector<double> flat(static_cast<std::size_t>(n), 0.5);
  EXPECT_EQ(check_tight(flat), "");
  EXPECT_EQ(run_scan<1>(flat, [&](int a, int b) { return tight_bound(flat, a, b); }).scan.best.i,
            0);
}

TEST(PrunedGridScan, NaNValuesNeverWin) {
  std::vector<double> v(256, kNaN);
  EXPECT_EQ(check_tight(v), "");  // nothing beats the -1 start: index 0
  v[130] = 0.1;
  v[131] = kNaN;
  v[3] = 0.05;
  EXPECT_EQ(check_tight(v), "");
  EXPECT_EQ(run_scan<1>(v, [&](int a, int b) { return tight_bound(v, a, b); }).scan.best.i, 130);
}

TEST(PrunedGridScan, NaNAndInfiniteBoundsSkipNothing) {
  std::vector<double> v(256);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1.0 / (1.0 + static_cast<double>(i % 37));
  for (const double b : {kNaN, kInf}) {
    EXPECT_EQ(check_all_leaves(v, [b](int, int) { return b; }), "");
    EXPECT_EQ(run_scan<1>(v, [b](int, int) { return b; }).scan.evaluated, 256);
  }
}

// Blocks whose every point is dead (0) bound at 0: skipped once a live
// point is found, opened while the best is still 0.
TEST(PrunedGridScan, DeadBlocksBoundAtZero) {
  std::vector<double> v(256, 0.0);
  EXPECT_EQ(check_tight(v), "");
  v[40] = 2.0;
  v[41] = 3.0;
  EXPECT_EQ(check_tight(v), "");
  const ScanOutcome got = run_scan<1>(v, [&](int a, int b) { return tight_bound(v, a, b); });
  EXPECT_EQ(got.scan.best.i, 41);
  EXPECT_LT(got.scan.evaluated, 64);
}

TEST(PrunedGridScan, GridsAboveTheHeapScanExhaustively) {
  for (const int n : {257, 1000}) {
    std::vector<double> v(static_cast<std::size_t>(n), 0.0);
    v[static_cast<std::size_t>(n / 3)] = 1.0;
    EXPECT_EQ(check_tight(v), "") << n;
  }
}

TEST(PrunedGridScan, RandomArraysMatchTheExhaustiveScan) {
  static constexpr int kSizes[] = {2, 3, 8, 16, 17, 18, 33, 100, 255, 256, 257, 1000};
  int prunable = 0;
  int pruned = 0;
  FOR_ALL(3000, 0x5CA9ULL, g) {
    const int n = kSizes[g.uniform_int(0, 11)];
    // Few distinct levels make exact ties common.
    const int levels = g.uniform_int(1, 6);
    std::vector<double> v(static_cast<std::size_t>(n));
    for (double& x : v) {
      const double r = g.uniform(0.0, 1.0);
      if (r < 0.05) {
        x = kNaN;
      } else if (r < 0.25) {
        x = 0.0;
      } else {
        x = g.uniform_int(0, levels) * 0.125 - (g.chance(0.05) ? 2.0 : 0.0);
      }
    }
    // A smooth peak sometimes, so tight bounds prune hard.
    if (g.chance(0.5)) {
      const int peak = g.uniform_int(0, n - 1);
      for (int i = 0; i < n; ++i) {
        if (!std::isnan(v[static_cast<std::size_t>(i)]))
          v[static_cast<std::size_t>(i)] = 1.0 / (1.0 + std::abs(i - peak) * 0.1);
      }
    }
    const auto kind = static_cast<BoundKind>(g.uniform_int(0, 4));
    std::vector<double> margin(static_cast<std::size_t>(n) * 2 + 2);
    std::vector<int> mix(margin.size());
    for (std::size_t k = 0; k < margin.size(); ++k) {
      margin[k] = g.chance(0.5) ? 0.0 : g.uniform(0.0, 0.5);
      mix[k] = g.uniform_int(0, 3);
    }
    const auto bound = [&](int a, int b) {
      const std::size_t k = static_cast<std::size_t>(a + b);
      const double tight = tight_bound(v, a, b);
      switch (kind == BoundKind::kMixed ? static_cast<BoundKind>(mix[k]) : kind) {
        case BoundKind::kTight:
          return tight;
        case BoundKind::kLoose:
          return tight + margin[k];
        case BoundKind::kInf:
          return kInf;
        default:
          return kNaN;
      }
    };
    const std::string diff = check_all_leaves(v, bound);
    ASSERT_EQ(diff, "") << g.context();
    if (kind == BoundKind::kTight && n > 32 && n <= core::kMaxPrunedGrid) {
      ++prunable;
      if (run_scan<1>(v, bound).scan.evaluated < n) ++pruned;
    }
  }
  // Agreement holds vacuously if nothing is ever skipped.
  EXPECT_GT(prunable, 200);
  EXPECT_GE(2 * pruned, prunable) << pruned << " of " << prunable;
}

}  // namespace
}  // namespace skyferry
