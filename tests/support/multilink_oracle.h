// Differential oracle for the joint (link, d) optimizer, shared by the
// fast tier (link/multilink_oracle_test.cc) and the slow tier
// (oracle_slow_test.cc). The reference below is the unmemoized
// optimizer — the 2n independent golden-grid searches and the per-link
// forced election — kept verbatim together with the search schedule it
// ran on. The production solve must reproduce it bit for bit: every
// double is compared with memcmp, every int and enum with ==, for the
// free election, for the single-link decisions and for the switch
// election from every link at three commit margins, whose answer the
// reference gives by comparing its pinned elections. The production
// solve prunes grid points and links by utility bounds and evaluates a
// flat-rate link's trickle from one path mean; the reference does
// neither, so the comparison also proves those exact. The grid points a
// search evaluated (grid_evaluated) depend on the pruning, so they are
// checked on their own: never more than the grid, the whole grid
// wherever the solve scans exhaustively.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "link/multilink.h"
#include "support/proptest.h"
#include "uav/failure.h"

namespace skyferry::legacy {

// ---- reference: the unmemoized optimizer ----------------------------------
// Calls into it are ref::-qualified: the link:: and core:: argument types
// would otherwise pull the production overloads in by ADL.
namespace ref {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr int kPathSegments = 8;
inline constexpr double kGoldenRatioInv = 0.6180339887498949;

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

inline double trickle_bytes(const link::LinkBackend& bk, double d_m,
                            const link::MultiLinkParams& p) {
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

inline BurstEval eval_burst(const link::LinkBackend& bk, double d_m, double burst_bytes,
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

inline core::Boundary classify(double d, double lo, double hi) noexcept {
  const double eps = 1e-6 * std::max(hi - lo, 1.0);
  if (d >= hi - eps) return core::Boundary::kTransmitNow;
  if (d <= lo + eps) return core::Boundary::kAtFloor;
  return core::Boundary::kInterior;
}

inline core::OptimizeResult to_result(const BurstEval& e, double d, double lo, double hi,
                                      int evals) {
  core::OptimizeResult r;
  r.d_opt_m = d;
  r.utility = e.utility;
  r.cdelay_s = e.cdelay_s;
  r.discount = e.discount;
  r.boundary = classify(d, lo, hi);
  r.evaluations = evals;
  return r;
}

/// Each link's single-link search: golden_grid_search on its own U(d).
inline std::vector<core::OptimizeResult> single_link_decisions(
    const std::vector<const link::LinkBackend*>& links, const link::MultiLinkParams& p,
    const uav::FailureModel& failure, const core::OptimizeOptions& opt) {
  std::vector<core::OptimizeResult> single;
  const double lo = p.min_distance_m;
  const double hi = p.d0_m;
  for (const link::LinkBackend* bk : links) {
    const SearchOut s = ref::golden_grid_search(
        lo, hi, [&](double d) { return eval_burst(*bk, d, p.mdata_bytes, p, failure).utility; },
        opt);
    single.push_back(to_result(eval_burst(*bk, s.d, p.mdata_bytes, p, failure), s.d, lo, hi,
                               s.evals));
  }
  return single;
}

inline link::MultiLinkResult optimize_multilink(const std::vector<const link::LinkBackend*>& links,
                                                const link::MultiLinkParams& p,
                                                const uav::FailureModel& failure,
                                                core::OptimizeOptions opt, int forced_burst_link) {
  link::MultiLinkResult r;
  const int n_links = static_cast<int>(links.size());
  if (n_links == 0) return r;
  const std::vector<core::OptimizeResult> single =
      ref::single_link_decisions(links, p, failure, opt);
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

  int best_j = -1;
  SearchOut best{};
  for (int j = 0; j < n_links; ++j) {
    if (forced_burst_link >= 0 && j != forced_burst_link) continue;
    SearchOut cand;
    if (n_links == 1) {
      const core::OptimizeResult& s = single[static_cast<std::size_t>(j)];
      cand = {s.d_opt_m, s.utility, s.evaluations};
    } else {
      cand = ref::golden_grid_search(lo, hi, [&](double d) { return joint_utility(j, d); }, opt);
      const double d_single = single[static_cast<std::size_t>(j)].d_opt_m;
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

/// The switch election's challenger from the pinned elections
/// `pinned[j]` (burst pinned to link j): the first link other than
/// `stay` with the highest utility, when that utility is positive and at
/// least (1 + margin) times stay's; -1 otherwise.
inline int switch_challenger(const std::vector<link::MultiLinkResult>& pinned, int stay,
                             double margin) {
  int best = -1;
  double best_u = 0.0;
  for (int j = 0; j < static_cast<int>(pinned.size()); ++j) {
    if (j == stay) continue;
    if (pinned[static_cast<std::size_t>(j)].decision.utility > best_u) {
      best = j;
      best_u = pinned[static_cast<std::size_t>(j)].decision.utility;
    }
  }
  const double stay_u = pinned[static_cast<std::size_t>(stay)].decision.utility;
  return best >= 0 && best_u >= (1.0 + margin) * stay_u ? best : -1;
}

}  // namespace ref

// ---- bitwise comparison ---------------------------------------------------

inline bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Empty when `got` and `want` agree bit for bit, else the first field
/// that differs.
inline std::string first_difference(const core::OptimizeResult& got,
                                    const core::OptimizeResult& want, const std::string& where) {
  if (!same_bits(got.d_opt_m, want.d_opt_m)) return where + ".d_opt_m";
  if (!same_bits(got.utility, want.utility)) return where + ".utility";
  if (!same_bits(got.cdelay_s, want.cdelay_s)) return where + ".cdelay_s";
  if (!same_bits(got.discount, want.discount)) return where + ".discount";
  if (got.boundary != want.boundary) return where + ".boundary";
  if (got.evaluations != want.evaluations) return where + ".evaluations";
  return {};
}

inline std::string first_difference(const link::MultiLinkResult& got,
                                    const link::MultiLinkResult& want) {
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
  return {};
}

inline std::string first_difference(const std::vector<core::OptimizeResult>& got,
                                    const std::vector<core::OptimizeResult>& want) {
  if (got.size() != want.size()) return "single.size";
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (std::string d = first_difference(got[k], want[k], "single[" + std::to_string(k) + "]");
        !d.empty())
      return d;
  }
  return {};
}

/// Empty when `grid_evaluated` is a count the search's path allows: 0
/// without a grid (d0 <= d_min), the whole grid where the bounds do not
/// hold (more points than the block heap, a speed that is not finite and
/// positive), at most the whole grid elsewhere.
inline std::string grid_count_error(int grid_evaluated, const link::MultiLinkParams& p,
                                    const core::OptimizeOptions& opt, const std::string& where) {
  const int n = core::grid_size(opt);
  const bool no_grid = !(p.d0_m > p.min_distance_m);
  const bool exhaustive =
      n > core::kMaxPrunedGrid || !std::isfinite(p.speed_mps) || !(p.speed_mps > 0.0);
  const bool bad = no_grid      ? grid_evaluated != 0
                   : exhaustive ? grid_evaluated != n
                                : grid_evaluated < 1 || grid_evaluated > n;
  return bad ? where + ".grid_evaluated = " + std::to_string(grid_evaluated) : std::string{};
}

// ---- probes ---------------------------------------------------------------

/// The candidate pool: the four presets plus variants that move the
/// trickle window (no session setup, long setup), the availability
/// discount and the rate fit, so subsets exercise every branch.
inline std::vector<link::LinkBackendConfig> multilink_pool_configs() {
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

inline uav::FailureModel random_failure(proptest::Case& g) {
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

inline link::MultiLinkParams random_params(proptest::Case& g) {
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
  p.speed_mps = v < 0.03 ? 0.0 : v < 0.06 ? ref::kInf : g.uniform(0.5, 40.0);
  p.mdata_bytes = std::exp(g.uniform(std::log(1e3), std::log(2e9)));
  return p;
}

inline core::OptimizeOptions random_options(proptest::Case& g) {
  // 257 and 1000 exceed the pruned scan's block heap.
  static constexpr int kGrids[] = {1, 2, 5, 7, 8, 9, 16, 33, 64, 256, 257, 1000};
  core::OptimizeOptions opt;
  opt.grid_points = kGrids[g.uniform_int(0, 11)];
  if (g.chance(0.2)) opt.tolerance_m = g.uniform(0.001, 5.0);
  if (g.chance(0.1)) opt.max_refine_iters = g.uniform_int(0, 12);
  return opt;
}

/// Where a curvature probe puts its 802.11n fit's grid: R* is the rate
/// at which 1/rate turns from concave (closer in) to convex. kZoom
/// narrows the grid to a window around d*, 1e-7 to 5e-2 of d* wide on
/// its near side and 1e-7 to 0.5 on its far side; kDip to one whose
/// near end lies 0.5-3 % short of d* and far end 25-60 % past it.
enum class FitRegion { kConcave, kConvex, kStraddle, kPastZero, kZoom, kDip };

/// One 802.11n fit for the curvature probes. The fit's R* crossing d*
/// and zero crossing 2^(b/|a|) = e²·d* are placed against [d_min, d0]
/// per `region` (kZoom moves [d_min, d0] instead), with availability < 1
/// and latency > 0 at random.
inline link::LinkBackendConfig random_paper_fit(proptest::Case& g, FitRegion region,
                                                link::MultiLinkParams& p) {
  link::LinkBackendConfig c = link::LinkBackendConfig::wifi_80211n();
  c.name = "wifi-fit";
  c.wifi_a = -std::exp(g.uniform(std::log(0.05), std::log(20.0)));
  const double lo = p.min_distance_m;
  const double hi = p.d0_m;
  const double e2 = std::exp(2.0);
  double d_star = 0.0;
  switch (region) {
    case FitRegion::kConcave:  // the whole grid closer in than d*
      d_star = hi * g.uniform(1.0, 6.0);
      break;
    case FitRegion::kConvex:  // d* below the grid, the zero past it
      d_star = std::max(lo / g.uniform(1.0, 2.5), hi / e2 * g.uniform(1.0, 1.3));
      break;
    case FitRegion::kStraddle:
      d_star = lo + g.uniform(0.0, 1.0) * (hi - lo);
      break;
    case FitRegion::kPastZero:  // the rate reaches 0 inside the grid
      d_star = (lo + g.uniform(0.02, 0.98) * (hi - lo)) / e2;
      break;
    case FitRegion::kZoom:
      d_star = lo + g.uniform(0.0, 1.0) * (hi - lo);
      p.min_distance_m = d_star * (1.0 - std::exp(g.uniform(std::log(1e-7), std::log(0.05))));
      p.d0_m = d_star * (1.0 + std::exp(g.uniform(std::log(1e-7), std::log(0.5))));
      break;
    case FitRegion::kDip:
      d_star = lo + g.uniform(0.0, 1.0) * (hi - lo);
      p.min_distance_m = d_star * (1.0 - std::exp(g.uniform(std::log(5e-3), std::log(3e-2))));
      p.d0_m = d_star * (1.0 + std::exp(g.uniform(std::log(0.25), std::log(0.6))));
      break;
  }
  // R(d*) = R*  <=>  log2 d* = b/|a| − 2/ln 2.
  c.wifi_b = -c.wifi_a * (std::log2(d_star) + 2.0 / std::numbers::ln2);
  // The fit's own distance floor, sometimes above the grid's.
  c.min_distance_m = region >= FitRegion::kZoom || g.chance(0.8)
                         ? p.min_distance_m
                         : p.min_distance_m + g.uniform(0.0, 0.5) * (p.d0_m - p.min_distance_m);
  if (g.chance(0.5)) {
    c.outage.availability = g.uniform(0.3, 1.0);
    c.outage.mean_outage_s = 5.0;
  }
  if (g.chance(0.5)) {
    c.session_setup_s = g.uniform(0.0, 3.0);
    c.rtt_s = g.uniform(0.0, 0.2);
  }
  return c;
}

/// The speed at which, at ρ = 0, Cdelay's slope vanishes at d*
/// (8M·|R'| / R² = 1/v there), where its curvature changes sign: the
/// utility is flattest there, and neighbouring grid points tie or cross
/// by an ulp. A little slower, Cdelay has a shallow local maximum just
/// before d* and a local minimum just past it.
inline double aimed_speed(const link::LinkBackendConfig& fit, double mdata_bytes) {
  const double a_rate = fit.outage.availability * fit.wifi_scale * -fit.wifi_a / std::numbers::ln2;
  const double d_star = std::exp2(fit.wifi_b / -fit.wifi_a - 2.0 / std::numbers::ln2);
  return d_star * a_rate / (2.0 * mdata_bytes);
}

/// Running totals of an oracle run.
struct MultiLinkOracleTally {
  int comparisons{0};
  int mismatches{0};
  int multi_link_free{0};   ///< free elections over >= 2 links
  int pruned_free{0};       ///< ... that pruned at least one link
  int links_pruned{0};      ///< ... links they pruned, in all
  int tied_free{0};         ///< ... whose winning utility another link ties
  int bounded_free{0};      ///< free elections whose grid stages may prune
  int grid_pruned_free{0};  ///< ... whose elected search skipped grid points
  int switches{0};            ///< switch elections over >= 2 links
  int switches_pruned{0};     ///< ... that pruned at least one challenger
  int switches_committed{0};  ///< ... with a challenger
  std::string first_mismatch;
};

/// The commit margins every switch election is checked at: none, the
/// fleet's default and one in [0, 0.5) drawn from the query's own bits,
/// so every caller checks a third margin without a generator.
inline std::array<double, 3> switch_margins(const link::MultiLinkParams& p) {
  std::uint64_t state = std::bit_cast<std::uint64_t>(p.d0_m) ^
                        std::bit_cast<std::uint64_t>(p.mdata_bytes) * 3 ^
                        std::bit_cast<std::uint64_t>(p.speed_mps) * 5;
  return {0.0, 0.05, 0.5 * static_cast<double>(proptest::splitmix64(state) >> 11) * 0x1.0p-53};
}

/// Empty when `got` is the switch election the reference's pinned
/// elections `pinned` answer from link `stay` at `margin`, bit for bit,
/// else the first field that differs.
inline std::string switch_difference(const link::SwitchElection& got,
                                     const std::vector<link::MultiLinkResult>& pinned, int stay,
                                     double margin, const link::MultiLinkParams& p,
                                     const core::OptimizeOptions& opt) {
  std::string diff = first_difference(got.stay, pinned[static_cast<std::size_t>(stay)]);
  if (diff.empty()) diff = grid_count_error(got.stay.decision.grid_evaluated, p, opt, "stay");
  if (!diff.empty()) return "stay." + diff;
  if (got.stay.links_pruned != 0) return "stay.links_pruned";
  const int want = ref::switch_challenger(pinned, stay, margin);
  if (got.challenger.burst_link != want)
    return "challenger = " + std::to_string(got.challenger.burst_link) + ", want " +
           std::to_string(want);
  diff = want < 0 ? first_difference(got.challenger, link::MultiLinkResult{})
                  : first_difference(got.challenger, pinned[static_cast<std::size_t>(want)]);
  if (diff.empty() && want >= 0)
    diff = grid_count_error(got.challenger.decision.grid_evaluated, p, opt, "challenger");
  if (!diff.empty()) return "challenger." + diff;
  if (got.challenger.links_pruned != 0) return "challenger.links_pruned";
  if (got.links_pruned < 0 || got.links_pruned >= static_cast<int>(pinned.size()))
    return "links_pruned = " + std::to_string(got.links_pruned);
  return {};
}

/// Solves one query every way the production solver offers — the free
/// election, the single-link decisions and the switch election from
/// every link at every switch_margins() margin — and compares each
/// against the reference bit for bit.
inline void check_query(const std::vector<const link::LinkBackend*>& links,
                        const link::MultiLinkParams& p, const uav::FailureModel& failure,
                        const core::OptimizeOptions& opt, const std::string& context,
                        MultiLinkOracleTally& t) {
  const auto report = [&](std::string diff, const std::string& which) {
    ++t.comparisons;
    if (diff.empty()) return;
    ++t.mismatches;
    if (t.first_mismatch.empty()) {
      std::ostringstream msg;
      msg.precision(17);
      msg << context << ": " << which << " differs at " << diff << " (links=" << links.size()
          << " d0=" << p.d0_m << " min_d=" << p.min_distance_m << " v=" << p.speed_mps
          << " M=" << p.mdata_bytes << " grid=" << opt.grid_points << ")";
      t.first_mismatch = msg.str();
    }
  };

  const link::MultiLinkResult free = link::optimize_multilink(links, p, failure, opt);
  std::string diff = first_difference(free, ref::optimize_multilink(links, p, failure, opt, -1));
  if (diff.empty()) diff = grid_count_error(free.decision.grid_evaluated, p, opt, "decision");
  // Only links that lose can be pruned.
  if (diff.empty() && (free.links_pruned < 0 || free.links_pruned >= static_cast<int>(links.size())))
    diff = "links_pruned = " + std::to_string(free.links_pruned);
  report(diff, "free election");
  if (links.size() > 1) {
    ++t.multi_link_free;
    if (free.links_pruned > 0) ++t.pruned_free;
    t.links_pruned += free.links_pruned;
  }
  const int n = core::grid_size(opt);
  if (p.d0_m > p.min_distance_m && n <= core::kMaxPrunedGrid && std::isfinite(p.speed_mps) &&
      p.speed_mps > 0.0) {
    ++t.bounded_free;
    if (free.decision.grid_evaluated < n) ++t.grid_pruned_free;
  }

  const std::vector<core::OptimizeResult> single =
      link::single_link_decisions(links, p, failure, opt);
  diff = first_difference(single, ref::single_link_decisions(links, p, failure, opt));
  for (std::size_t k = 0; diff.empty() && k < single.size(); ++k)
    diff = grid_count_error(single[k].grid_evaluated, p, opt, "single[" + std::to_string(k) + "]");
  report(diff, "single-link decisions");

  std::vector<link::MultiLinkResult> pinned;
  for (int j = 0; j < static_cast<int>(links.size()); ++j)
    pinned.push_back(ref::optimize_multilink(links, p, failure, opt, j));
  for (int stay = 0; stay < static_cast<int>(links.size()); ++stay) {
    for (const double margin : switch_margins(p)) {
      const link::SwitchElection got = link::elect_switch(links, p, failure, stay, margin, opt);
      std::ostringstream which;
      which.precision(17);
      which << "switch election from link " << stay << " at margin " << margin;
      report(switch_difference(got, pinned, stay, margin, p, opt), which.str());
      if (links.size() > 1) {
        ++t.switches;
        if (got.links_pruned > 0) ++t.switches_pruned;
        if (got.challenger.burst_link >= 0) ++t.switches_committed;
      }
      if (margin == 0.0 && stay != free.burst_link &&
          same_bits(got.stay.decision.utility, free.decision.utility))
        ++t.tied_free;
    }
  }
}

/// `queries` seeded random queries: a random subset of the pool in a
/// random order, random failure laws, degenerate intervals and grids.
inline MultiLinkOracleTally multilink_random_mismatches(int queries, std::uint64_t seed) {
  const link::LinkSet pool(multilink_pool_configs());
  const std::vector<const link::LinkBackend*> all = pool.views();
  MultiLinkOracleTally t;
  for (proptest::Case g(seed, queries); g.next_case();) {
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
    check_query(links, p, failure, opt, g.context(), t);
  }
  return t;
}

/// `queries` seeded queries around a random 802.11n fit whose grid lies
/// wholly where 1/rate is concave, wholly where it is convex, across R*,
/// past the fit's zero, or in a narrow window around R*'s distance d*
/// (FitRegion), alone or with 1 or 3 other links (pool links or a second
/// random fit) in a random position. d0 runs from 21 to 5000 m (zoomed
/// windows aside) on the default 256-point grid (sometimes another), and
/// the failure rate is 0 on a quarter of the queries, on most zoomed
/// ones. With `dip_alone` every query is the fit alone on a kDip window
/// at a speed just under the aimed one: Cdelay then dips below the
/// corners of a block that straddles d*, the case the concave/convex
/// classification exists for.
inline MultiLinkOracleTally multilink_curvature_mismatches(int queries, std::uint64_t seed,
                                                           bool dip_alone = false) {
  const std::vector<link::LinkBackendConfig> pool = multilink_pool_configs();
  MultiLinkOracleTally t;
  for (proptest::Case g(seed, queries); g.next_case();) {
    link::MultiLinkParams p;
    p.min_distance_m = g.chance(0.7) ? 20.0 : g.uniform(1.0, 20.0);
    p.d0_m = std::exp(g.uniform(std::log(21.0), std::log(5000.0)));
    p.mdata_bytes = std::exp(g.uniform(std::log(1e5), std::log(2e9)));
    p.speed_mps = g.uniform(0.5, 40.0);
    const auto region = dip_alone ? FitRegion::kDip : static_cast<FitRegion>(g.uniform_int(0, 5));
    const link::LinkBackendConfig fit = random_paper_fit(g, region, p);
    const bool near_d_star = region >= FitRegion::kZoom;
    const auto log_uniform = [&](double lo, double hi) {
      return std::exp(g.uniform(std::log(lo), std::log(hi)));
    };
    if (region == FitRegion::kZoom) {
      p.speed_mps = aimed_speed(fit, p.mdata_bytes) *
                    (g.chance(0.4) ? 1.0 : std::exp(g.uniform(-1.0, 1.0) * log_uniform(1e-9, 1e-2)));
    } else if (region == FitRegion::kDip) {
      p.speed_mps = aimed_speed(fit, p.mdata_bytes) * (1.0 - log_uniform(3e-6, 1e-4));
    } else if (g.chance(0.5)) {
      p.speed_mps = aimed_speed(fit, p.mdata_bytes) * std::exp(g.uniform(-0.4, 0.4));
    }
    const uav::FailureModel failure =
        g.chance(near_d_star ? 0.8 : 0.25) ? uav::FailureModel(0.0) : random_failure(g);
    core::OptimizeOptions opt;
    if (!near_d_star && g.chance(0.1)) opt.grid_points = g.uniform_int(8, 256);

    std::vector<link::LinkBackendConfig> configs{fit};
    const int others =
        dip_alone ? 0 : std::array{0, 1, 3}[static_cast<std::size_t>(g.uniform_int(0, 2))];
    for (int k = 0; k < others; ++k) {
      configs.push_back(g.chance(0.25)
                            ? random_paper_fit(g, static_cast<FitRegion>(g.uniform_int(0, 3)), p)
                            : pool[static_cast<std::size_t>(
                                  g.uniform_int(0, static_cast<int>(pool.size()) - 1))]);
    }
    std::swap(configs[0],
              configs[static_cast<std::size_t>(g.uniform_int(0, static_cast<int>(others)))]);
    const link::LinkSet set(configs);
    check_query(set.views(), p, failure, opt, g.context(), t);
  }
  return t;
}

}  // namespace skyferry::legacy
