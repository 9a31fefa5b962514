#include "link/multilink.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <utility>

namespace skyferry::link {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Trapezoid segments of the path-mean rate. Deterministic and fixed so
/// decisions are reproducible; 8 segments resolve every backend's
/// piecewise curve well enough for a trickle *estimate* (the sim layer,
/// not this planner, is the ground truth for delivered bytes).
constexpr int kPathSegments = 8;

/// core::optimize()'s search schedule (core::golden_grid_search), run
/// here as its two stages — core::pruned_grid_scan or core::grid_scan,
/// then core::golden_refine. Sharing the templates — not keeping a copy
/// in sync — is what guarantees a single-802.11n-backend run evaluates
/// the identical FP expression at the identical points and lands on the
/// bit-identical decision (tests/link/multilink_contract).
using SearchOut = core::ScalarSearchResult;

/// Ferry time from d0 in to d.
double tship_s(double d_m, const MultiLinkParams& p) noexcept {
  return d_m >= p.d0_m ? 0.0 : (p.d0_m - d_m) / p.speed_mps;
}

/// The trapezoid mean of `sample(i)` over the path's kPathSegments + 1
/// samples: the one accumulation every trickle's path-mean rate runs.
template <class S>
double path_mean(S&& sample) {
  double acc = 0.0;
  for (int i = 0; i <= kPathSegments; ++i) {
    const double s = sample(i);
    acc += (i == 0 || i == kPathSegments) ? 0.5 * s : s;
  }
  return acc / kPathSegments;
}

/// Bytes a link of `availability` moves over a trickle window at a
/// path-mean rate.
double window_bytes(double availability, double window_s, double mean_rate_bps) {
  return availability * window_s * mean_rate_bps / 8.0;
}

}  // namespace

double trickle_bytes(const LinkBackend& bk, double d_m, const MultiLinkParams& p) {
  const double window = tship_s(d_m, p) - bk.config().session_setup_s;
  if (window <= 0.0) return 0.0;
  const double mean_rate_bps = path_mean([&](int i) {
    const double x = d_m + (p.d0_m - d_m) * i / kPathSegments;
    return bk.rate_bps(std::max(x, p.min_distance_m));
  });
  return window_bytes(bk.availability(), window, mean_rate_bps);
}

namespace {

/// The burst link's delay decomposition at (d, burst_bytes). The FP
/// expression is core::CommDelayModel/UtilityFunction verbatim, plus
/// the availability discount on the rate (·1.0 for 802.11n — exact
/// identity) and the fixed session latency (+0.0 for 802.11n).
struct BurstEval {
  double tship_s{0.0};
  double ttx_s{kInf};
  double cdelay_s{kInf};
  double discount{0.0};
  double utility{0.0};
};

/// The decomposition from its distance-dependent inputs: ferry time,
/// effective burst rate (rate · availability) and δ(d). Live and grid
/// evaluations both go through here, so they share one FP expression.
BurstEval burst_eval(double tship, double rate_bps, double burst_bytes, double latency_s,
                     double discount) {
  BurstEval e;
  e.tship_s = tship;
  e.ttx_s = rate_bps <= 0.0 ? kInf : burst_bytes * 8.0 / rate_bps;
  e.cdelay_s = e.tship_s + e.ttx_s + latency_s;
  e.discount = discount;
  e.utility = (e.cdelay_s > 0.0 && e.cdelay_s != kInf) ? e.discount / e.cdelay_s : 0.0;
  return e;
}

double burst_rate_bps(const LinkBackend& bk, double d_m, const MultiLinkParams& p) {
  return bk.rate_bps(std::max(d_m, p.min_distance_m)) * bk.availability();
}

BurstEval eval_burst(const LinkBackend& bk, double d_m, double burst_bytes,
                     const MultiLinkParams& p, const uav::FailureModel& failure) {
  return burst_eval(tship_s(d_m, p), burst_rate_bps(bk, d_m, p), burst_bytes, bk.latency_s(),
                    failure.discount(p.d0_m, d_m));
}

/// Joint trickle when link j bursts: every other link ships in the
/// background during the ferry leg, summed in link order and capped at
/// the batch. `trickle_of(k)` supplies link k's trickle at the point.
template <class T>
double joint_trickle(int n_links, int j, double mdata_bytes, T&& trickle_of) {
  double total = 0.0;
  for (int k = 0; k < n_links; ++k) {
    if (k == j) continue;
    total += trickle_of(k);
  }
  return std::min(total, mdata_bytes);
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

/// Relative slack on the bounds that let a solve skip work: the block
/// bounds of the grid stages and the elections (burst_bound,
/// curvature_bound, block_bound), the trickle floor (batch_covered) and
/// the concave/convex classification of an 802.11n block. Each
/// first-order bound evaluates, at an interval's extreme corner, the
/// same correctly rounded, monotone operations the objective evaluates
/// at any point inside it (Tship, δ,
/// rate·availability — non-increasing in distance for every backend,
/// validated and property-tested — M − min(Σ, M), burst·8/rate, the
/// Cdelay sum, δ/Cdelay), so FP keeps the order the exact argument
/// proves. Two steps differ. (1) A link's trickle is
/// availability·window·(path mean of 9 rates)/8 in the objective but
/// window·(rate·availability)/8 in the bounds: equal in exact
/// arithmetic, rounded apart by ~20 ulps (~5e-15 relative) per link plus
/// n ulps in the sum; M − Σ may cancel and amplify that, so the slack
/// goes on Σ before it meets M. (2) δ goes through libm's exp/pow,
/// monotone only to the last ulp; the slack on the final bound covers
/// it. 1e-9 exceeds each by five orders of magnitude, and the curvature
/// bound's rounding (below 2.1e-11 relative, curvature_bound()) fifty-
/// fold, and prunes as sharply.
constexpr double kBoundSlack = 1e-9;

/// The curvature bound holds for a block only where every 802.11n rate
/// on it is at least this fraction of its fit's term magnitudes,
/// availability·scale·(|b| + |a|·|log2 d|): the rate's relative rounding
/// error then stays below ~2e4 ulps (curvature_bound()). Near the fit's
/// zero crossing the first-order bound alone applies.
constexpr double kConditioning = 1e-4;

/// Pass 1's grid stage evaluates blocks of at most this many points
/// whole and bisects larger ones. With the curvature bound few of
/// 802.11n's blocks open on the fleet's spawn shape, and splitting a
/// corner block once lets each half be pruned alone. Measured on
/// BM_MultiLinkDecideFleet when every link ran pass 1: leaf 7 evaluates
/// 141 pass-1 points per solve over the four links (802.11n 66 of 256,
/// the others 25 each) and runs fastest; leaf 15 (whole corner blocks)
/// evaluates 187 and runs ~5 % slower, leaf 3 evaluates 114 but pays
/// more in bound evaluations than the points save.
constexpr int kSingleLeaf = 7;

/// Pass 2 bisects down to single points: a joint point may fill trickle
/// cells of 9 rate samples per other link.
constexpr int kJointLeaf = 1;

/// One joint solve: pass 1 searches each link alone, pass 2 runs a
/// link's joint search with the others trickling. All 2n searches scan
/// the same grid, so their grid stages read one column whose values are
/// filled the first time a search or a bound reads them: a point's Tship
/// and δ, a (point, link) cell's rate·availability and trickle. Where
/// the block bounds hold (`bounded_`) each grid stage is
/// core::pruned_grid_scan and fills only the points it evaluates; only
/// the golden-section refinements evaluate live. Nothing runs until an
/// election or single() asks for it: a link's pass 1 runs when its joint
/// search needs the single-link optimum (the dominance net) or
/// single_link_decisions reports it, and a link the election proves a
/// loser by bound runs neither pass. The column is per-solve working
/// memory, so concurrent solves share nothing mutable.
class JointSolve {
 public:
  JointSolve(const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
             const uav::FailureModel& failure, const core::OptimizeOptions& opt)
      : links_(links), p_(p), failure_(failure), opt_(opt), n_(static_cast<int>(links.size())),
        bounded_(hi() > lo() && std::isfinite(lo()) && std::isfinite(hi()) &&
                 std::isfinite(p.speed_mps) && p.speed_mps > 0.0 && p.mdata_bytes >= 0.0),
        singles_(static_cast<std::size_t>(n_)), joint_(static_cast<std::size_t>(n_)),
        searched_(static_cast<std::size_t>(n_), 0) {
    // No trickle sample lies past d0 by more than a few ulps, and rates
    // do not rise with distance: each link's rate there floors its
    // path-mean rate for every point of the interval.
    const double far = p.d0_m + kBoundSlack * (std::abs(p.d0_m) + std::abs(p.min_distance_m));
    terms_.reserve(static_cast<std::size_t>(n_));
    for (int k = 0; k < n_; ++k) terms_.push_back(terms_of(link(k), far));
    if (!(hi() <= lo())) allocate_column(core::grid_size(opt));
  }

  /// The free election: the first link with the highest joint utility,
  /// bit for bit what searching every link then a scan would elect.
  /// search_best_first() searches the links in descending order of their
  /// bounds and stops at the first bound strictly below the best utility
  /// found; no link left can beat or tie it, so the first-index rule sees
  /// every link that could win.
  [[nodiscard]] int elect() {
    double incumbent = -kInf;
    search_best_first(-1, incumbent, [&](int j) {
      incumbent = std::max(incumbent, search_joint(j));
      return incumbent;
    });
    return first_best();
  }

  /// The switch election from link `stay` (0 <= stay < n): its pinned
  /// election, and the first other link with the highest joint utility
  /// when that utility is positive and at least (1 + margin) times the
  /// stay utility. search_best_first() searches the challengers against
  /// the larger of that floor and the best challenger found: a link left
  /// below it is no answer, and neither beats nor ties one.
  [[nodiscard]] SwitchElection elect_switch(int stay, double margin) {
    SwitchElection out;
    search_joint(stay);
    out.stay = result(stay);
    const double floor = (1.0 + margin) * out.stay.decision.utility;
    // The fleet's rule: the highest positive utility, the lowest index
    // on ties, whatever order the challengers are searched in.
    int best_j = -1;
    double best_u = 0.0;
    search_best_first(stay, std::max(floor, best_u), [&](int j) {
      search_joint(j);
      MultiLinkResult r = result(j);
      if (r.decision.utility > best_u || (r.decision.utility == best_u && j < best_j)) {
        best_u = r.decision.utility;
        best_j = j;
        out.challenger = std::move(r);
      }
      return std::max(floor, best_u);
    });
    if (best_j < 0 || !(best_u >= floor)) out.challenger = {};
    out.links_pruned = pruned();
    return out;
  }

  /// Links the last election decided without a pass-2 search.
  [[nodiscard]] int pruned() const {
    return n_ - static_cast<int>(std::count(searched_.begin(), searched_.end(), 1));
  }

  /// Link j's single-link decision, pass 1, run on first use: the
  /// legacy "now or later?" problem on the link's own rate, latency and
  /// availability profile.
  const core::OptimizeResult& single(int j) {
    Single& s = singles_[static_cast<std::size_t>(j)];
    if (!s.done) {
      const LinkBackend& bk = link(j);
      const GridStage g = grid_stage<kSingleLeaf>(
          [&](int i) { return grid_utility(j, i, p_.mdata_bytes); },
          [&](int a, int b) {
            const auto top = static_cast<std::size_t>(b);
            const double first_order = burst_bound(j, column_.tship[top], column_.discount[top],
                                                   rate(a, j), p_.mdata_bytes);
            return std::min(first_order, curvature_bound(j, a, b)) * (1.0 + kBoundSlack);
          });
      const SearchOut out = refine(g, [&](double d) {
        return eval_burst(bk, d, p_.mdata_bytes, p_, failure_).utility;
      });
      s.result = to_result(eval_burst(bk, out.d, p_.mdata_bytes, p_, failure_), out.d, lo(), hi(),
                           out.evals);
      s.result.grid_evaluated = g.evaluated;
      s.done = true;
    }
    return s.result;
  }

  /// Link j's pinned election, finalized with its trickle split. Needs
  /// link j's pass-2 search.
  [[nodiscard]] MultiLinkResult result(int j) const {
    MultiLinkResult r;
    r.trickle_by_link.assign(static_cast<std::size_t>(n_), 0.0);
    r.burst_link = j;
    const Search& best = joint_[static_cast<std::size_t>(j)];
    const double d = best.out.d;
    // Per-link trickles, rescaled proportionally when the Mdata cap
    // binds so they always sum to the reported total (the raw sum
    // replays joint_trickle's accumulation order, keeping trickle_bytes
    // exact).
    double raw_sum = 0.0;
    for (int k = 0; k < n_; ++k) {
      if (k == j || n_ == 1) continue;
      const double tr = trickle(k, d, tship_s(d, p_));
      r.trickle_by_link[static_cast<std::size_t>(k)] = tr;
      raw_sum += tr;
    }
    r.trickle_bytes = n_ == 1 ? 0.0 : std::min(raw_sum, p_.mdata_bytes);
    if (raw_sum > p_.mdata_bytes && raw_sum > 0.0) {
      const double scale = p_.mdata_bytes / raw_sum;
      for (double& v : r.trickle_by_link) v *= scale;
    }
    r.burst_bytes = p_.mdata_bytes - r.trickle_bytes;
    r.decision = to_result(eval_burst(link(j), d, r.burst_bytes, p_, failure_), d, lo(), hi(),
                           best.out.evals);
    r.decision.grid_evaluated = best.grid_evaluated;
    return r;
  }

 private:
  /// A grid stage's answer and the grid points it evaluated.
  struct GridStage {
    core::GridBest best;
    int evaluated{0};
  };

  /// Link j's pass-1 decision, once run.
  struct Single {
    bool done{false};
    core::OptimizeResult result;
  };

  /// One pass-2 search's outcome and the grid points its grid stage
  /// evaluated.
  struct Search {
    SearchOut out;
    int grid_evaluated{0};
  };

  /// The values the grid stages read at d_i = grid_point(lo, hi, n, i),
  /// each written on first use; the flags say which are. The values are
  /// left uninitialized: a pruned solve writes only a part of them.
  struct GridColumn {
    int n{0};                                ///< grid points; 0 when hi <= lo
    std::unique_ptr<double[]> tship;         ///< [i]
    std::unique_ptr<double[]> discount;      ///< [i]: δ(d_i), the same for every link
    std::unique_ptr<double[]> rate;          ///< [cell(i, k)]: rate_bps · availability
    std::unique_ptr<double[]> trickle;       ///< [cell(i, k)]; null with one link
    std::vector<std::uint8_t> point_filled;  ///< [i]: tship and discount
    std::vector<std::uint8_t> cell_filled;   ///< [cell(i, k)]: kRateFilled | kTrickleFilled
  };
  static constexpr std::uint8_t kRateFilled = 1;
  static constexpr std::uint8_t kTrickleFilled = 2;

  /// Per-link constants the bounds and the grid stages read.
  struct LinkTerms {
    double setup_s;       ///< session setup: the trickle window starts after it
    double latency_s;     ///< LinkBackend::latency_s()
    double far_rate_bps;  ///< rate · availability just past d0
    /// The rate is the same at d_min and just past d0, so at every
    /// trickle sample (bounded solves with 2+ links only); then
    /// flat_mean_bps is its path mean.
    bool flat{false};
    double flat_mean_bps{0.0};
    /// An 802.11n fit: curvature_bound() applies (bounded solves only).
    bool paper_log{false};
    double rate_star_bps{0.0};     ///< R*: 1/rate is concave above it, convex below
    double conditioned_bps{0.0};   ///< kConditioning · availability·scale·(|b| + |a|·max|log2 d|)
    double unclamped_from_m{0.0};  ///< the fit's own distance floor
  };

  [[nodiscard]] double lo() const noexcept { return p_.min_distance_m; }
  [[nodiscard]] double hi() const noexcept { return p_.d0_m; }
  [[nodiscard]] const LinkBackend& link(int k) const {
    return *links_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::size_t cell(int i, int k) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(k);
  }
  [[nodiscard]] double grid_d(int i) const { return core::grid_point(lo(), hi(), column_.n, i); }

  /// Link `bk`'s constants; `far` lies just past d0.
  [[nodiscard]] LinkTerms terms_of(const LinkBackend& bk, double far) const {
    LinkTerms t{bk.config().session_setup_s, bk.latency_s(), burst_rate_bps(bk, far, p_)};
    if (!bounded_) return t;
    // Every trickle sample's rate argument lies in [d_min, far], and
    // rates do not rise with distance: equal ends pin every sample.
    const double near_rate = bk.rate_bps(lo());
    if (n_ > 1 && near_rate == bk.rate_bps(far)) {
      t.flat = true;
      t.flat_mean_bps = path_mean([&](int) { return near_rate; });
    }
    if (bk.kind() == BackendKind::kWifi80211n) {
      const LinkBackendConfig& c = bk.config();
      const double unit = bk.availability() * c.wifi_scale;
      const double log_span = std::max(std::abs(std::log2(std::max(lo(), c.min_distance_m))),
                                       std::abs(std::log2(std::max(hi(), c.min_distance_m))));
      t.paper_log = true;
      t.rate_star_bps = 2.0 * unit * std::abs(c.wifi_a) / std::numbers::ln2;
      t.conditioned_bps =
          kConditioning * unit * (std::abs(c.wifi_b) + std::abs(c.wifi_a) * log_span);
      t.unclamped_from_m = c.min_distance_m;
    }
    return t;
  }

  void allocate_column(int n) {
    const auto points = static_cast<std::size_t>(n);
    const std::size_t cells = points * static_cast<std::size_t>(n_);
    column_.n = n;
    column_.tship = std::make_unique_for_overwrite<double[]>(points);
    column_.discount = std::make_unique_for_overwrite<double[]>(points);
    column_.rate = std::make_unique_for_overwrite<double[]>(cells);
    if (n_ > 1) column_.trickle = std::make_unique_for_overwrite<double[]>(cells);
    column_.point_filled.assign(points, 0);
    column_.cell_filled.assign(cells, 0);
  }

  /// Fills grid point i's Tship and δ on first use.
  void fill_point(int i) {
    const auto k = static_cast<std::size_t>(i);
    if (column_.point_filled[k]) return;
    const double d = grid_d(i);
    column_.tship[k] = tship_s(d, p_);
    column_.discount[k] = failure_.discount(p_.d0_m, d);
    column_.point_filled[k] = 1;
  }

  /// Link k's rate · availability at grid point i, computed on first use.
  double rate(int i, int k) {
    const std::size_t c = cell(i, k);
    if (!(column_.cell_filled[c] & kRateFilled)) {
      column_.rate[c] = burst_rate_bps(link(k), grid_d(i), p_);
      column_.cell_filled[c] |= kRateFilled;
    }
    return column_.rate[c];
  }

  /// Link k's trickle at grid point i, computed on first use.
  double grid_trickle(int i, int k) {
    const std::size_t c = cell(i, k);
    if (!(column_.cell_filled[c] & kTrickleFilled)) {
      fill_point(i);
      column_.trickle[c] = trickle(k, grid_d(i), column_.tship[static_cast<std::size_t>(i)]);
      column_.cell_filled[c] |= kTrickleFilled;
    }
    return column_.trickle[c];
  }

  /// Link k's trickle at d, `tship` = tship_s(d): trickle_bytes, with a
  /// flat-rate link's path mean read from its terms. Its samples all
  /// equal, so path_mean() would accumulate the same doubles in the same
  /// order: the result is bit-identical.
  [[nodiscard]] double trickle(int k, double d, double tship) const {
    const LinkTerms& t = terms_[static_cast<std::size_t>(k)];
    if (!t.flat) return trickle_bytes(link(k), d, p_);
    const double window = tship - t.setup_s;
    if (window <= 0.0) return 0.0;
    return window_bytes(link(k).availability(), window, t.flat_mean_bps);
  }

  /// One grid stage of the shared schedule: core::pruned_grid_scan with
  /// `block_bound` where the bounds hold, the exhaustive scan elsewhere,
  /// no grid when hi <= lo.
  template <int Leaf, class G, class B>
  GridStage grid_stage(G&& grid, B&& block_bound) {
    if (bounded_) {
      const core::PrunedGridScan g = core::pruned_grid_scan<Leaf>(column_.n, grid, block_bound);
      return {g.best, g.evaluated};
    }
    if (hi() <= lo()) return {};
    return {core::grid_scan(column_.n, grid), column_.n};
  }

  /// The schedule's refinement after grid stage `g`, evaluating `f`
  /// live: core::golden_grid_search split at its grid stage.
  template <class F>
  [[nodiscard]] SearchOut refine(const GridStage& g, F&& f) const {
    if (hi() <= lo()) return {hi(), f(hi()), 1};
    return core::golden_refine(lo(), hi(), g.best, f, opt_);
  }

  /// True when the other links provably trickle the whole batch while
  /// link j bursts after a `tship` ferry, so joint_trickle's cap returns
  /// Mdata whatever the exact sum: each link trickles at least its
  /// far_rate_bps over its window (the slack covers the rounding, as in
  /// block_bound()).
  [[nodiscard]] bool batch_covered(int j, double tship) const {
    if (!(p_.mdata_bytes > 0.0)) return false;
    double floor = 0.0;
    for (int k = 0; k < n_; ++k) {
      if (k == j) continue;
      const LinkTerms& t = terms_[static_cast<std::size_t>(k)];
      floor += std::max(tship - t.setup_s, 0.0) * t.far_rate_bps / 8.0;
    }
    return floor >= p_.mdata_bytes * (1.0 + kBoundSlack);
  }

  /// Mdata − link j's joint trickle at a point with ferry time `tship`;
  /// `trickle_of(k)` supplies link k's trickle there, read only when the
  /// batch is not provably covered.
  template <class T>
  [[nodiscard]] double joint_burst(int j, double tship, T&& trickle_of) const {
    if (batch_covered(j, tship)) return p_.mdata_bytes - p_.mdata_bytes;  // the cap binds
    return p_.mdata_bytes - joint_trickle(n_, j, p_.mdata_bytes, trickle_of);
  }

  /// Link j's joint search. With one link the joint objective IS the
  /// single objective — the pass-1 result is reused verbatim, which is
  /// what makes the single-backend configuration bit-identical to
  /// core::optimize(). Returns the search's utility.
  double search_joint(int j) {
    const core::OptimizeResult& alone = single(j);
    Search cand{{alone.d_opt_m, alone.utility, alone.evaluations}, alone.grid_evaluated};
    if (n_ > 1) {
      const GridStage g = grid_stage<kJointLeaf>(
          [&](int i) {
            fill_point(i);
            return grid_utility(j, i,
                                joint_burst(j, column_.tship[static_cast<std::size_t>(i)],
                                            [&](int k) { return grid_trickle(i, k); }));
          },
          [&](int a, int b) { return block_bound(j, a, b); });
      cand = {refine(g, [&](double d) { return joint_utility(j, d); }), g.evaluated};
      // Dominance net: the joint objective dominates the single one
      // pointwise, but the two searches can refine into different
      // brackets — evaluating the joint objective at the single-link
      // optimum guarantees result-level dominance too.
      const double v_single = joint_utility(j, alone.d_opt_m);
      ++cand.out.evals;
      if (v_single > cand.out.val) {
        cand.out.d = alone.d_opt_m;
        cand.out.val = v_single;
      }
    }
    joint_[static_cast<std::size_t>(j)] = cand;
    searched_[static_cast<std::size_t>(j)] = 1;
    return cand.out.val;
  }

  /// The first searched link with the highest joint utility.
  [[nodiscard]] int first_best() const {
    int best_j = -1;
    for (int j = 0; j < n_; ++j) {
      if (!searched_[static_cast<std::size_t>(j)]) continue;
      if (best_j < 0 || joint_[static_cast<std::size_t>(j)].out.val >
                            joint_[static_cast<std::size_t>(best_j)].out.val)
        best_j = j;
    }
    return best_j;
  }

  /// Pass 1's first-order block bound, and the last step of the others:
  /// an upper bound on link j's utility anywhere in an interval
  /// [d_a, d_b] of the grid span when it bursts at least `burst` bytes
  /// there at a rate of at most `rate_near`, given Tship(d_b) and δ(d_b)
  /// or more. Rates do not rise with distance, δ does not fall and Tship
  /// does not rise, so the utility there is at most the burst evaluated
  /// with Tship and δ at d_b and the rate at d_a. Pass 1 reads link j's
  /// rate at d_a:
  ///   δ(d_b) / (Tship(d_b) + 8·M/rate_j(d_a) + latency_j).
  /// Before the slack, which each caller applies once.
  [[nodiscard]] double burst_bound(int j, double tship_far, double discount_far, double rate_near,
                                   double burst) const {
    if (rate_near <= 0.0) return 0.0;  // dead from d_a on: utility 0
    const BurstEval e = burst_eval(tship_far, rate_near, burst,
                                   terms_[static_cast<std::size_t>(j)].latency_s, discount_far);
    // A zero Cdelay scores 0 in burst_eval, but nearby points do not.
    return e.cdelay_s > 0.0 ? e.utility : kInf;
  }

  /// Link j's Cdelay at grid point i bursting the whole batch: the
  /// denominator grid_utility(j, i, M) divides by, bit for bit.
  [[nodiscard]] double grid_cdelay(int j, int i) {
    return burst_eval(column_.tship[static_cast<std::size_t>(i)], rate(i, j), p_.mdata_bytes,
                      terms_[static_cast<std::size_t>(j)].latency_s,
                      column_.discount[static_cast<std::size_t>(i)])
        .cdelay_s;
  }

  /// Pass 1's second-order block bound for an 802.11n link, before the
  /// slack; +inf where it does not apply. With R(d) = rate·availability
  /// = u·(a·log2 d + b), u = availability·scale, a <= 0, 1/R has
  /// (1/R)'' = A·(R + 2A) / (d²·R³), A = u·a/ln 2 <= 0: Ttx = 8M/R is
  /// concave where R >= R* = −2A and convex where R <= R*. Tship is
  /// linear, so Cdelay shares Ttx's curvature, and δ(d) <= δ(d_b) on the
  /// block. R falls with d, so R(d_b) is the block's smallest rate.
  ///  - Concave: R(d_b) >= R*·(1 + 1e-9) and d_a at or past the fit's
  ///    own distance floor (below it R is flat, and the kink is convex).
  ///    Cdelay's minimum on the block is at an end:
  ///      U <= δ(d_b) / min(C(d_a), C(d_b)).
  ///  - Convex: the nearest corner d_l left of d_a has R(d_l) <= R*·(1 −
  ///    1e-9), so Cdelay is convex on [d_l, d_b] (a flat stretch below
  ///    the fit's floor joins it at a convex kink). Past d_a it stays
  ///    above its secant through d_l and d_a, slope σ:
  ///      U <= δ(d_b) / (C(d_a) + min(0, σ·(d_b − d_a))),
  ///    used only while the secant drop is at most C(d_a)/2.
  /// Rounding: R(d_b) >= kConditioning·u·(|b| + |a|·max|log2 d|) keeps
  /// the computed rate, hence each C, within η ≈ 2e4 ulps (~2e-12) of
  /// the exact curve on the whole block; the concave bound moves by 2η,
  /// and the secant's cancellation, with d_b − d_a <= 2·(d_a − d_l) and
  /// the drop capped at C(d_a)/2, by at most 9η of the denominator —
  /// both far inside kBoundSlack. The 1e-9 margins on R* absorb R's
  /// rounding in the classification.
  [[nodiscard]] double curvature_bound(int j, int a, int b) {
    const LinkTerms& t = terms_[static_cast<std::size_t>(j)];
    if (!t.paper_log) return kInf;
    const double rate_far = rate(b, j);
    if (!(rate_far > 0.0) || !(rate_far >= t.conditioned_bps)) return kInf;
    const double c_a = grid_cdelay(j, a);
    double c_min = 0.0;
    if (rate_far >= t.rate_star_bps * (1.0 + kBoundSlack) && grid_d(a) >= t.unclamped_from_m) {
      c_min = std::min(c_a, grid_cdelay(j, b));
    } else {
      if (a == 0) return kInf;
      const int l = (a - 1) / core::kCornerStride * core::kCornerStride;
      if (!(rate(l, j) <= t.rate_star_bps * (1.0 - kBoundSlack))) return kInf;
      const double d_a = grid_d(a);
      const double drop = (c_a - grid_cdelay(j, l)) / (d_a - grid_d(l)) * (grid_d(b) - d_a);
      if (!(drop >= -0.5 * c_a)) return kInf;
      c_min = c_a + std::min(drop, 0.0);
    }
    // Relative slack covers the rounding only where the bound is normal.
    const double bound = c_min > 0.0 ? column_.discount[static_cast<std::size_t>(b)] / c_min : kInf;
    return bound >= std::numeric_limits<double>::min() ? bound : kInf;
  }

  /// The block bound of pass 2 and of the elections, slack included: an
  /// upper bound on link j's joint utility anywhere in the grid interval
  /// [d_a, d_b], from exact Tship at both ends, δ(d_b) and every link's
  /// rate at d_a, each filled into the column on first use. A trickle's
  /// path-mean rate is at most the rate at the path's near end and its
  /// window at most Tship(d_a), so every other link trickling at its d_a
  /// rate for that window shrinks the burst no further than the batch
  /// really shrinks; burst_bound does the rest. NaN (NaN inputs) stays
  /// NaN.
  [[nodiscard]] double block_bound(int j, int a, int b) {
    fill_point(a);
    fill_point(b);
    const double tship_near = column_.tship[static_cast<std::size_t>(a)];
    double others = 0.0;
    for (int k = 0; k < n_; ++k) {
      if (k == j) continue;
      others += std::max(tship_near - terms_[static_cast<std::size_t>(k)].setup_s, 0.0) *
                rate(a, k) / 8.0;
    }
    const double burst = p_.mdata_bytes - std::min(others * (1.0 + kBoundSlack), p_.mdata_bytes);
    const auto far = static_cast<std::size_t>(b);
    return burst_bound(j, column_.tship[far], column_.discount[far], rate(a, j), burst) *
           (1.0 + kBoundSlack);
  }

  /// Runs `search(j)`, which searches link j and returns the new bar,
  /// for every link but `skip` whose joint utility may reach the bar,
  /// best bound first. The blocks of the links not yet searched wait in a
  /// max-heap by block_bound(), starting from the kCornerStride blocks of
  /// pruned_grid_scan's first level; the top block splits at its midpoint
  /// until a single grid interval is on top, and its link is searched.
  /// The scan stops at the first top bound strictly below the bar: every
  /// link left is then strictly below it at every point its search can
  /// evaluate (the grid span [d_0, d_{n-1}]: golden points and the
  /// dominance probe stay inside their grid brackets). A NaN bound reads
  /// as +inf. Where the bounds do not hold, or a lone link has nothing
  /// to beat, every link is searched.
  template <class S>
  void search_best_first(int skip, double bar, S&& search) {
    if (!bounded_ || n_ == 1) {
      for (int j = 0; j < n_; ++j) {
        if (j != skip) search(j);
      }
      return;
    }
    struct Block {
      double bound;
      int j;
      int a;
      int b;
    };
    const auto by_bound = [](const Block& x, const Block& y) { return x.bound < y.bound; };
    const int corners = (column_.n - 2) / core::kCornerStride + 1;
    std::vector<Block> heap;
    heap.reserve(static_cast<std::size_t>(n_ * corners + 64));
    const auto block = [&](int j, int a, int b) {
      const double bound = block_bound(j, a, b);
      return Block{std::isnan(bound) ? kInf : bound, j, a, b};
    };
    for (int a = 0; a < column_.n - 1;) {
      const int b = std::min(a + core::kCornerStride, column_.n - 1);
      for (int j = 0; j < n_; ++j) {
        if (j != skip) heap.push_back(block(j, a, b));
      }
      a = b;
    }
    std::make_heap(heap.begin(), heap.end(), by_bound);
    const auto push = [&](int j, int a, int b) {
      heap.push_back(block(j, a, b));
      std::push_heap(heap.begin(), heap.end(), by_bound);
    };
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), by_bound);
      const Block top = heap.back();
      heap.pop_back();
      if (top.bound < bar) break;
      if (searched_[static_cast<std::size_t>(top.j)]) continue;
      if (top.b - top.a < 2) {
        bar = search(top.j);
        continue;
      }
      const int mid = top.a + (top.b - top.a) / 2;
      push(top.j, top.a, mid);
      push(top.j, mid, top.b);
    }
  }

  /// Link j's utility at grid point i bursting `burst_bytes`: eval_burst
  /// on column values.
  [[nodiscard]] double grid_utility(int j, int i, double burst_bytes) {
    fill_point(i);
    const double r = rate(i, j);
    return burst_eval(column_.tship[static_cast<std::size_t>(i)], r, burst_bytes,
                      terms_[static_cast<std::size_t>(j)].latency_s,
                      column_.discount[static_cast<std::size_t>(i)])
        .utility;
  }

  [[nodiscard]] double joint_utility(int j, double d) const {
    const double tship = tship_s(d, p_);
    const double burst = joint_burst(j, tship, [&](int k) { return trickle(k, d, tship); });
    return eval_burst(link(j), d, burst, p_, failure_).utility;
  }

  const std::vector<const LinkBackend*>& links_;
  const MultiLinkParams& p_;
  const uav::FailureModel& failure_;
  const core::OptimizeOptions& opt_;
  int n_;
  bool bounded_;  ///< the block bounds hold: pruned grid stages and elections
  GridColumn column_;
  std::vector<LinkTerms> terms_;  ///< [k]
  std::vector<Single> singles_;
  std::vector<Search> joint_;
  std::vector<char> searched_;  ///< [j]: joint_[j] holds link j's pass-2 search
};

}  // namespace

MultiLinkResult optimize_multilink(const std::vector<const LinkBackend*>& links,
                                   const MultiLinkParams& p, const uav::FailureModel& failure,
                                   core::OptimizeOptions opt) {
  if (links.empty()) return {};
  JointSolve solve(links, p, failure, opt);
  MultiLinkResult r = solve.result(solve.elect());
  r.links_pruned = solve.pruned();
  return r;
}

SwitchElection elect_switch(const std::vector<const LinkBackend*>& links,
                            const MultiLinkParams& p, const uav::FailureModel& failure, int stay,
                            double commit_margin, core::OptimizeOptions opt) {
  if (stay < 0 || stay >= static_cast<int>(links.size())) return {};
  JointSolve solve(links, p, failure, opt);
  return solve.elect_switch(stay, commit_margin);
}

std::vector<core::OptimizeResult> single_link_decisions(
    const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
    const uav::FailureModel& failure, core::OptimizeOptions opt) {
  std::vector<core::OptimizeResult> out;
  if (links.empty()) return out;
  JointSolve solve(links, p, failure, opt);
  out.reserve(links.size());
  for (int j = 0; j < static_cast<int>(links.size()); ++j) out.push_back(solve.single(j));
  return out;
}

// ---- LinkSet ---------------------------------------------------------------

LinkSet::LinkSet(std::vector<LinkBackendConfig> configs) : configs_(std::move(configs)) {
  backends_.reserve(configs_.size());
  for (const LinkBackendConfig& c : configs_) backends_.push_back(make_backend(c));
}

std::vector<const LinkBackend*> LinkSet::views() const {
  std::vector<const LinkBackend*> v;
  v.reserve(backends_.size());
  for (const auto& b : backends_) v.push_back(b.get());
  return v;
}

}  // namespace skyferry::link
