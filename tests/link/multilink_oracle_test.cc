// Differential oracle for the joint (link, d) optimizer's shared grid
// column. The reference below is the unmemoized optimizer — the 2n
// independent golden-grid searches and the per-link forced election —
// kept verbatim together with the search schedule it ran on. The
// production solve must reproduce it bit for bit: every double is
// compared with memcmp, every int and enum with ==, for the free
// election and for each per-link pinned election, over seeded random
// link subsets/orders, failure laws, degenerate intervals and grids.
// The production solve prunes grid points and links by utility bounds;
// the reference never does, so the comparison also proves the pruning
// exact, and the test asserts that both prunings actually fired. The
// grid points a search evaluated (grid_evaluated) depend on the pruning,
// so they are checked on their own: never more than the grid, the whole
// grid wherever the solve scans exhaustively.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "link/multilink.h"
#include "support/proptest.h"
#include "uav/failure.h"

namespace skyferry {
namespace {

// ---- reference: the unmemoized optimizer ----------------------------------
// Calls into it are ref::-qualified: the link:: and core:: argument types
// would otherwise pull the production overloads in by ADL.
namespace ref {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kPathSegments = 8;
constexpr double kGoldenRatioInv = 0.6180339887498949;

using SearchOut = core::ScalarSearchResult;

template <class F>
SearchOut golden_grid_search(double lo, double hi, F&& f, const core::OptimizeOptions& opt) {
  SearchOut out;
  if (hi <= lo) {
    out.d = hi;
    out.val = f(hi);
    out.evals = 1;
    return out;
  }
  const int n = std::max(opt.grid_points, 8);
  double best_d = lo;
  double best_u = -1.0;
  int best_i = 0;
  int evals = 0;
  for (int i = 0; i < n; ++i) {
    const double d = lo + (hi - lo) * i / (n - 1);
    const double val = f(d);
    ++evals;
    if (val > best_u) {
      best_u = val;
      best_d = d;
      best_i = i;
    }
  }
  double a = lo + (hi - lo) * std::max(best_i - 1, 0) / (n - 1);
  double b = lo + (hi - lo) * std::min(best_i + 1, n - 1) / (n - 1);
  double x1 = b - kGoldenRatioInv * (b - a);
  double x2 = a + kGoldenRatioInv * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  evals += 2;
  for (int i = 0; i < opt.max_refine_iters && (b - a) > opt.tolerance_m; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kGoldenRatioInv * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kGoldenRatioInv * (b - a);
      f1 = f(x1);
    }
    ++evals;
  }
  const double mid = 0.5 * (a + b);
  const double refined = f(mid);
  ++evals;
  const bool take_mid = refined >= best_u;
  out.d = take_mid ? mid : best_d;
  out.val = take_mid ? refined : best_u;
  out.evals = evals;
  return out;
}

double trickle_bytes(const link::LinkBackend& bk, double d_m, const link::MultiLinkParams& p) {
  const double tship = d_m >= p.d0_m ? 0.0 : (p.d0_m - d_m) / p.speed_mps;
  const double window = tship - bk.config().session_setup_s;
  if (window <= 0.0) return 0.0;
  double acc = 0.0;
  for (int i = 0; i <= kPathSegments; ++i) {
    const double x = d_m + (p.d0_m - d_m) * i / kPathSegments;
    const double s = bk.rate_bps(std::max(x, p.min_distance_m));
    acc += (i == 0 || i == kPathSegments) ? 0.5 * s : s;
  }
  const double mean_rate_bps = acc / kPathSegments;
  return bk.availability() * window * mean_rate_bps / 8.0;
}

struct BurstEval {
  double tship_s{0.0};
  double ttx_s{kInf};
  double cdelay_s{kInf};
  double discount{0.0};
  double utility{0.0};
};

BurstEval eval_burst(const link::LinkBackend& bk, double d_m, double burst_bytes,
                     const link::MultiLinkParams& p, const uav::FailureModel& failure) {
  BurstEval e;
  e.tship_s = d_m >= p.d0_m ? 0.0 : (p.d0_m - d_m) / p.speed_mps;
  const double dc = std::max(d_m, p.min_distance_m);
  const double s = bk.rate_bps(dc) * bk.availability();
  e.ttx_s = s <= 0.0 ? kInf : burst_bytes * 8.0 / s;
  e.cdelay_s = e.tship_s + e.ttx_s + bk.latency_s();
  e.discount = failure.discount(p.d0_m, d_m);
  e.utility = (e.cdelay_s > 0.0 && e.cdelay_s != kInf) ? e.discount / e.cdelay_s : 0.0;
  return e;
}

core::Boundary classify(double d, double lo, double hi) noexcept {
  const double eps = 1e-6 * std::max(hi - lo, 1.0);
  if (d >= hi - eps) return core::Boundary::kTransmitNow;
  if (d <= lo + eps) return core::Boundary::kAtFloor;
  return core::Boundary::kInterior;
}

core::OptimizeResult to_result(const BurstEval& e, double d, double lo, double hi, int evals) {
  core::OptimizeResult r;
  r.d_opt_m = d;
  r.utility = e.utility;
  r.cdelay_s = e.cdelay_s;
  r.discount = e.discount;
  r.boundary = classify(d, lo, hi);
  r.evaluations = evals;
  return r;
}

link::MultiLinkResult optimize_multilink(const std::vector<const link::LinkBackend*>& links,
                                         const link::MultiLinkParams& p,
                                         const uav::FailureModel& failure,
                                         core::OptimizeOptions opt, int forced_burst_link) {
  link::MultiLinkResult r;
  const int n_links = static_cast<int>(links.size());
  if (n_links == 0) return r;
  r.single.resize(static_cast<std::size_t>(n_links));
  r.trickle_by_link.assign(static_cast<std::size_t>(n_links), 0.0);

  const double lo = p.min_distance_m;
  const double hi = p.d0_m;

  const auto joint_trickle = [&](int j, double d) {
    double total = 0.0;
    for (int k = 0; k < n_links; ++k) {
      if (k == j) continue;
      total += ref::trickle_bytes(*links[static_cast<std::size_t>(k)], d, p);
    }
    return std::min(total, p.mdata_bytes);
  };
  const auto joint_utility = [&](int j, double d) {
    const double burst = p.mdata_bytes - joint_trickle(j, d);
    return eval_burst(*links[static_cast<std::size_t>(j)], d, burst, p, failure).utility;
  };

  for (int j = 0; j < n_links; ++j) {
    const link::LinkBackend& bk = *links[static_cast<std::size_t>(j)];
    const SearchOut s = ref::golden_grid_search(
        lo, hi, [&](double d) { return eval_burst(bk, d, p.mdata_bytes, p, failure).utility; },
        opt);
    r.single[static_cast<std::size_t>(j)] =
        to_result(eval_burst(bk, s.d, p.mdata_bytes, p, failure), s.d, lo, hi, s.evals);
  }

  int best_j = -1;
  SearchOut best{};
  for (int j = 0; j < n_links; ++j) {
    if (forced_burst_link >= 0 && j != forced_burst_link) continue;
    SearchOut cand;
    if (n_links == 1) {
      const core::OptimizeResult& s = r.single[static_cast<std::size_t>(j)];
      cand = {s.d_opt_m, s.utility, s.evaluations};
    } else {
      cand = ref::golden_grid_search(lo, hi, [&](double d) { return joint_utility(j, d); }, opt);
      const double d_single = r.single[static_cast<std::size_t>(j)].d_opt_m;
      const double v_single = joint_utility(j, d_single);
      ++cand.evals;
      if (v_single > cand.val) {
        cand.d = d_single;
        cand.val = v_single;
      }
    }
    if (best_j < 0 || cand.val > best.val) {
      best_j = j;
      best = cand;
    }
  }

  if (best_j < 0) return r;
  r.burst_link = best_j;
  const link::LinkBackend& burst_bk = *links[static_cast<std::size_t>(best_j)];
  double raw_sum = 0.0;
  for (int k = 0; k < n_links; ++k) {
    if (k == best_j || n_links == 1) continue;
    const double tr = ref::trickle_bytes(*links[static_cast<std::size_t>(k)], best.d, p);
    r.trickle_by_link[static_cast<std::size_t>(k)] = tr;
    raw_sum += tr;
  }
  r.trickle_bytes = n_links == 1 ? 0.0 : std::min(raw_sum, p.mdata_bytes);
  if (raw_sum > p.mdata_bytes && raw_sum > 0.0) {
    const double scale = p.mdata_bytes / raw_sum;
    for (double& v : r.trickle_by_link) v *= scale;
  }
  r.burst_bytes = p.mdata_bytes - r.trickle_bytes;
  r.decision =
      to_result(eval_burst(burst_bk, best.d, r.burst_bytes, p, failure), best.d, lo, hi, best.evals);
  return r;
}

}  // namespace ref

// ---- bitwise comparison ---------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Empty when `got` and `want` agree bit for bit, else the first field
/// that differs.
std::string first_difference(const core::OptimizeResult& got, const core::OptimizeResult& want,
                             const std::string& where) {
  if (!same_bits(got.d_opt_m, want.d_opt_m)) return where + ".d_opt_m";
  if (!same_bits(got.utility, want.utility)) return where + ".utility";
  if (!same_bits(got.cdelay_s, want.cdelay_s)) return where + ".cdelay_s";
  if (!same_bits(got.discount, want.discount)) return where + ".discount";
  if (got.boundary != want.boundary) return where + ".boundary";
  if (got.evaluations != want.evaluations) return where + ".evaluations";
  return {};
}

std::string first_difference(const link::MultiLinkResult& got, const link::MultiLinkResult& want) {
  if (std::string d = first_difference(got.decision, want.decision, "decision"); !d.empty())
    return d;
  if (got.burst_link != want.burst_link) return "burst_link";
  if (!same_bits(got.trickle_bytes, want.trickle_bytes)) return "trickle_bytes";
  if (!same_bits(got.burst_bytes, want.burst_bytes)) return "burst_bytes";
  if (got.trickle_by_link.size() != want.trickle_by_link.size()) return "trickle_by_link.size";
  for (std::size_t k = 0; k < want.trickle_by_link.size(); ++k) {
    if (!same_bits(got.trickle_by_link[k], want.trickle_by_link[k]))
      return "trickle_by_link[" + std::to_string(k) + "]";
  }
  if (got.single.size() != want.single.size()) return "single.size";
  for (std::size_t k = 0; k < want.single.size(); ++k) {
    if (std::string d = first_difference(got.single[k], want.single[k],
                                         "single[" + std::to_string(k) + "]");
        !d.empty())
      return d;
  }
  return {};
}

/// Empty when every search in `r` reports a grid_evaluated its path
/// allows, else the first that does not: 0 without a grid (d0 <= d_min),
/// the whole grid where the bounds do not hold (more points than the
/// block heap, a speed that is not finite and positive), at most the
/// whole grid elsewhere.
std::string grid_count_error(const link::MultiLinkResult& r, const link::MultiLinkParams& p,
                             const core::OptimizeOptions& opt) {
  const int n = core::grid_size(opt);
  const bool no_grid = !(p.d0_m > p.min_distance_m);
  const bool exhaustive = n > core::kMaxPrunedGrid || !std::isfinite(p.speed_mps) ||
                          !(p.speed_mps > 0.0);
  const auto bad = [&](int got) {
    if (no_grid) return got != 0;
    if (exhaustive) return got != n;
    return got < 1 || got > n;
  };
  if (bad(r.decision.grid_evaluated))
    return "decision.grid_evaluated = " + std::to_string(r.decision.grid_evaluated);
  for (std::size_t k = 0; k < r.single.size(); ++k) {
    if (bad(r.single[k].grid_evaluated))
      return "single[" + std::to_string(k) + "].grid_evaluated = " +
             std::to_string(r.single[k].grid_evaluated);
  }
  return {};
}

/// The candidate pool: the four presets plus variants that move the
/// trickle window (no session setup, long setup), the availability
/// discount and the rate fit, so subsets exercise every branch.
std::vector<link::LinkBackendConfig> pool_configs() {
  std::vector<link::LinkBackendConfig> pool{
      link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
      link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()};
  link::LinkBackendConfig instant_cell = link::LinkBackendConfig::cellular();
  instant_cell.name = "cellular-instant";
  instant_cell.session_setup_s = 0.0;
  instant_cell.rtt_s = 0.0;
  pool.push_back(instant_cell);
  link::LinkBackendConfig flaky_mesh = link::LinkBackendConfig::mesh();
  flaky_mesh.name = "mesh-flaky";
  flaky_mesh.outage.availability = 0.35;
  flaky_mesh.outage.mean_outage_s = 4.0;
  pool.push_back(flaky_mesh);
  link::LinkBackendConfig slow_leo = link::LinkBackendConfig::leo();
  slow_leo.name = "leo-slow-setup";
  slow_leo.session_setup_s = 40.0;
  pool.push_back(slow_leo);
  link::LinkBackendConfig steep_wifi = link::LinkBackendConfig::wifi_80211n();
  steep_wifi.name = "wifi-steep";
  steep_wifi.wifi_a = -14.0;
  steep_wifi.wifi_b = 90.0;
  pool.push_back(steep_wifi);
  // An exact copy of the 802.11n preset (a tie the lower index must win)
  // and a copy a few ulps faster (a near-tie the bound must not prune).
  link::LinkBackendConfig twin_wifi = link::LinkBackendConfig::wifi_80211n();
  twin_wifi.name = "wifi-twin";
  pool.push_back(twin_wifi);
  link::LinkBackendConfig near_wifi = link::LinkBackendConfig::wifi_80211n();
  near_wifi.name = "wifi-near-tie";
  near_wifi.wifi_scale *= 1.0 + 1e-15;
  pool.push_back(near_wifi);
  return pool;
}

uav::FailureModel random_failure(proptest::Case& g) {
  const double rho = g.chance(0.2) ? 0.0 : std::exp(g.uniform(std::log(1e-6), std::log(1e-2)));
  switch (g.uniform_int(0, 2)) {
    case 0:
      return uav::FailureModel(rho);
    case 1:
      return uav::FailureModel(rho, uav::FailureLaw::kLinear);
    default:
      return uav::FailureModel(rho, uav::FailureLaw::kWeibull, g.uniform(0.5, 4.0));
  }
}

link::MultiLinkParams random_params(proptest::Case& g) {
  link::MultiLinkParams p;
  p.min_distance_m = g.chance(0.7) ? 20.0 : g.uniform(1.0, 60.0);
  const double u = g.uniform(0.0, 1.0);
  if (u < 0.08) {
    p.d0_m = g.uniform(0.5, p.min_distance_m);  // hi < lo: the interval collapses
  } else if (u < 0.1) {
    p.d0_m = p.min_distance_m;  // hi == lo
  } else {
    p.d0_m = p.min_distance_m + std::exp(g.uniform(std::log(0.5), std::log(6000.0)));
  }
  // Speeds 0 and +inf: the bounds do not hold, the grid stages scan
  // exhaustively.
  const double v = g.uniform(0.0, 1.0);
  p.speed_mps = v < 0.03 ? 0.0 : v < 0.06 ? kInf : g.uniform(0.5, 40.0);
  p.mdata_bytes = std::exp(g.uniform(std::log(1e3), std::log(2e9)));
  return p;
}

core::OptimizeOptions random_options(proptest::Case& g) {
  // 257 and 1000 exceed the pruned scan's block heap.
  static constexpr int kGrids[] = {1, 2, 5, 7, 8, 9, 16, 33, 64, 256, 257, 1000};
  core::OptimizeOptions opt;
  opt.grid_points = kGrids[g.uniform_int(0, 11)];
  if (g.chance(0.2)) opt.tolerance_m = g.uniform(0.001, 5.0);
  if (g.chance(0.1)) opt.max_refine_iters = g.uniform_int(0, 12);
  return opt;
}

TEST(MultiLinkOracle, SharedGridSolveMatchesUnmemoizedReferenceBitForBit) {
  const link::LinkSet pool(pool_configs());
  const std::vector<const link::LinkBackend*> all = pool.views();
  constexpr int kQueries = 4000;
  int comparisons = 0;
  int mismatches = 0;
  int multi_link_free = 0;  // free elections over >= 2 links
  int pruned_free = 0;      // ... that pruned at least one link
  int tied_free = 0;        // ... whose winning utility another link ties
  int bounded_free = 0;     // free elections whose grid stages may prune
  int grid_pruned_free = 0;  // ... whose elected search skipped grid points
  std::string first_mismatch;
  FOR_ALL(kQueries, 0x0AC1EULL, g) {
    // A random subset in a random order (Fisher-Yates on the pool).
    std::vector<const link::LinkBackend*> links = all;
    for (std::size_t i = links.size(); i > 1; --i) {
      const int pick = g.uniform_int(0, static_cast<int>(i) - 1);
      std::swap(links[i - 1], links[static_cast<std::size_t>(pick)]);
    }
    links.resize(static_cast<std::size_t>(g.uniform_int(1, 5)));
    const link::MultiLinkParams p = random_params(g);
    const uav::FailureModel failure = random_failure(g);
    const core::OptimizeOptions opt = random_options(g);

    const auto check = [&](const link::MultiLinkResult& got, const link::MultiLinkResult& want,
                           const std::string& which) {
      ++comparisons;
      std::string diff = first_difference(got, want);
      if (diff.empty()) diff = grid_count_error(got, p, opt);
      if (diff.empty()) return;
      ++mismatches;
      if (first_mismatch.empty()) {
        std::ostringstream msg;
        msg << g.context() << ": " << which << " differs at " << diff << " (links=" << links.size()
            << " d0=" << p.d0_m << " min_d=" << p.min_distance_m << " grid=" << opt.grid_points
            << ")";
        first_mismatch = msg.str();
      }
    };

    const link::MultiLinkResult free = link::optimize_multilink(links, p, failure, opt);
    check(free, ref::optimize_multilink(links, p, failure, opt, -1), "free election");
    // Only links that lose can be pruned.
    ASSERT_GE(free.links_pruned, 0);
    ASSERT_LT(free.links_pruned, static_cast<int>(links.size()));
    if (links.size() > 1) {
      ++multi_link_free;
      if (free.links_pruned > 0) ++pruned_free;
    }
    const int n = core::grid_size(opt);
    if (p.d0_m > p.min_distance_m && n <= core::kMaxPrunedGrid && std::isfinite(p.speed_mps) &&
        p.speed_mps > 0.0) {
      ++bounded_free;
      if (free.decision.grid_evaluated < n) ++grid_pruned_free;
    }
    const std::vector<link::MultiLinkResult> per_link =
        link::optimize_multilink_per_link(links, p, failure, opt);
    ASSERT_EQ(per_link.size(), links.size());
    for (int j = 0; j < static_cast<int>(links.size()); ++j) {
      check(per_link[static_cast<std::size_t>(j)],
            ref::optimize_multilink(links, p, failure, opt, j),
            "per-link election " + std::to_string(j));
      EXPECT_EQ(per_link[static_cast<std::size_t>(j)].links_pruned, 0);
      if (j != free.burst_link &&
          same_bits(per_link[static_cast<std::size_t>(j)].decision.utility,
                    free.decision.utility))
        ++tied_free;
    }
  }
  EXPECT_EQ(mismatches, 0) << first_mismatch;
  // Each query compares the free election and every pinned one.
  EXPECT_GE(comparisons, 2 * kQueries);
  // The bit-identity above holds vacuously if nothing is pruned (about
  // 80 % of these elections prune a link) or no election is tied.
  EXPECT_GE(pruned_free * 2, multi_link_free)
      << "pruning fired on " << pruned_free << " of " << multi_link_free
      << " multi-link free elections";
  EXPECT_GT(tied_free, 0);
  EXPECT_GE(grid_pruned_free * 2, bounded_free)
      << "grid pruning fired on " << grid_pruned_free << " of " << bounded_free
      << " free elections on the bounded path";
}

// A tie at zero utility, where the bound's slack gives no margin: link 0
// is dead everywhere (bound 0); link 1 is alive only where the linear
// failure law has already discounted to 0, so it scores 0 too, but its
// bound over the grid interval that straddles both edges is positive.
// Link 1 is searched first; link 0's bound equals the incumbent and must
// not be pruned, so the first index still wins.
TEST(MultiLinkOracle, ZeroUtilityTieKeepsTheFirstIndex) {
  link::LinkBackendConfig dead = link::LinkBackendConfig::mesh();
  dead.name = "mesh-dead";
  dead.mesh_hop_m = 10.0;  // min distance 20 m is already two hops
  dead.mesh_max_hops = 1;
  link::LinkBackendConfig near = link::LinkBackendConfig::mesh();
  near.name = "mesh-near";
  near.mesh_max_hops = 1;  // alive out to 400 m
  const link::LinkSet set({dead, near});
  const link::MultiLinkParams p{2000.0, 5.0, 1e7, 20.0};
  // δ(d) > 0 only beyond 399.5 m; the 8-point grid steps from 302.9 m
  // to 585.7 m, so no evaluated point sees both a live rate and δ > 0.
  const uav::FailureModel failure(1.0 / 1600.5, uav::FailureLaw::kLinear);
  core::OptimizeOptions opt;
  opt.grid_points = 8;
  const link::MultiLinkResult got = link::optimize_multilink(set.views(), p, failure, opt);
  const link::MultiLinkResult want = ref::optimize_multilink(set.views(), p, failure, opt, -1);
  EXPECT_EQ(first_difference(got, want), "");
  EXPECT_EQ(got.burst_link, 0);
  EXPECT_EQ(got.decision.utility, 0.0);
}

// The pruning bound needs every rate curve non-increasing in distance, so
// a wifi fit that rises never reaches the solver.
TEST(MultiLinkOracle, RisingWifiFitIsRejectedBeforeTheSolver) {
  link::LinkBackendConfig rising = link::LinkBackendConfig::wifi_80211n();
  rising.wifi_a = 3.0;
  rising.wifi_b = 1.0;
  EXPECT_THROW((void)link::make_backend(rising), link::ConfigError);
  EXPECT_THROW(link::LinkSet({link::LinkBackendConfig::cellular(), rising}), link::ConfigError);
}

}  // namespace
}  // namespace skyferry
