#include "link/multilink.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace skyferry::link {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Trapezoid segments of the path-mean rate. Deterministic and fixed so
/// decisions are reproducible; 8 segments resolve every backend's
/// piecewise curve well enough for a trickle *estimate* (the sim layer,
/// not this planner, is the ground truth for delivered bytes).
constexpr int kPathSegments = 8;

/// The single definition of core::optimize()'s search schedule. Sharing
/// the template — not keeping a copy in sync — is what guarantees a
/// single-802.11n-backend run evaluates the identical FP expression at
/// the identical points and lands on the bit-identical decision
/// (tests/link/multilink_contract).
using core::golden_grid_search;
using SearchOut = core::ScalarSearchResult;

/// Ferry time from d0 in to d.
double tship_s(double d_m, const MultiLinkParams& p) noexcept {
  return d_m >= p.d0_m ? 0.0 : (p.d0_m - d_m) / p.speed_mps;
}

}  // namespace

double trickle_bytes(const LinkBackend& bk, double d_m, const MultiLinkParams& p) {
  const double window = tship_s(d_m, p) - bk.config().session_setup_s;
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

/// Relative slack on the bounds that let a solve skip work: the pruning
/// bound (upper_bounds) and the trickle floor (batch_covered). Each
/// evaluates, at an interval's extreme corner, the same correctly
/// rounded, monotone operations the objective evaluates at any point
/// inside it (Tship, δ, rate·availability — non-increasing in distance
/// for every backend, validated and property-tested — M − min(Σ, M),
/// burst·8/rate, the Cdelay sum, δ/Cdelay), so FP keeps the order the
/// exact argument proves. Two steps differ. (1) A link's trickle is
/// availability·window·(path mean of 9 rates)/8 in the objective but
/// window·(rate·availability)/8 in the bounds: equal in exact
/// arithmetic, rounded apart by ~20 ulps (~5e-15 relative) per link plus
/// n ulps in the sum; M − Σ may cancel and amplify that, so the slack
/// goes on Σ before it meets M. (2) δ goes through libm's exp/pow,
/// monotone only to the last ulp, and the bound scan's early exit
/// compares a rounded product; the slack on the final bound covers
/// both. 1e-9 exceeds each by five orders of magnitude and prunes as
/// sharply.
constexpr double kBoundSlack = 1e-9;

/// One joint solve: pass 1 searches each link alone, pass 2 runs a
/// link's joint search with the others trickling. All 2n searches scan
/// the same grid, so their grid stages read one column computed up
/// front — its trickle cells, 9 rate samples each, only once a joint
/// search needs them; only the golden-section refinement evaluates
/// live. The column is per-solve working memory, so concurrent solves
/// share nothing mutable.
class JointSolve {
 public:
  /// Builds the column and runs pass 1 for every link: the legacy "now
  /// or later?" problem on each link's own rate/latency/availability
  /// profile (MultiLinkResult::single reports all of them).
  JointSolve(const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
             const uav::FailureModel& failure, const core::OptimizeOptions& opt)
      : links_(links), p_(p), failure_(failure), opt_(opt), n_(static_cast<int>(links.size())),
        joint_(static_cast<std::size_t>(n_)), searched_(static_cast<std::size_t>(n_), 0) {
    // No trickle sample lies past d0 by more than a few ulps, and rates
    // do not rise with distance: each link's rate there floors its
    // path-mean rate for every point of the interval.
    const double far = p.d0_m + kBoundSlack * (std::abs(p.d0_m) + std::abs(p.min_distance_m));
    terms_.reserve(static_cast<std::size_t>(n_));
    for (int k = 0; k < n_; ++k) {
      terms_.push_back({link(k).config().session_setup_s, link(k).latency_s(),
                        burst_rate_bps(link(k), far, p)});
    }
    if (hi() > lo()) build_column(core::grid_size(opt));
    single_.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      const LinkBackend& bk = link(j);
      const SearchOut s = golden_grid_search(
          lo(), hi(), [&](int i) { return grid_utility(j, i, p.mdata_bytes); },
          [&](double d) { return eval_burst(bk, d, p.mdata_bytes, p, failure).utility; }, opt);
      single_[static_cast<std::size_t>(j)] =
          to_result(eval_burst(bk, s.d, p.mdata_bytes, p, failure), s.d, lo(), hi(), s.evals);
    }
  }

  /// Pass 2 for every link: each pinned election reads its own search.
  void search_all() {
    for (int j = 0; j < n_; ++j) search_joint(j);
  }

  /// The free election: the first link with the highest joint utility,
  /// bit for bit what search_all() then a scan would elect. Pass 2 runs
  /// in descending order of each link's utility bound and stops at the
  /// first bound strictly below the best utility found: no later link
  /// can reach it, and a tie is never skipped, so the first-index rule
  /// sees every link that could win.
  [[nodiscard]] int elect() {
    if (n_ == 1 || !(hi() > lo()) || !(std::isfinite(p_.speed_mps) && p_.speed_mps > 0.0)) {
      search_all();
      return first_best();
    }
    const std::vector<double> ub = upper_bounds();
    std::vector<int> order(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) order[static_cast<std::size_t>(j)] = j;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return ub[static_cast<std::size_t>(a)] > ub[static_cast<std::size_t>(b)];
    });
    double incumbent = -kInf;
    for (const int j : order) {
      if (ub[static_cast<std::size_t>(j)] < incumbent) break;
      search_joint(j);
      incumbent = std::max(incumbent, joint_[static_cast<std::size_t>(j)].val);
    }
    return first_best();
  }

  /// Links elect() decided without a pass-2 search.
  [[nodiscard]] int pruned() const {
    return n_ - static_cast<int>(std::count(searched_.begin(), searched_.end(), 1));
  }

  /// Link j's pinned election, finalized with its trickle split. Needs
  /// link j's pass-2 search.
  [[nodiscard]] MultiLinkResult result(int j) const {
    MultiLinkResult r;
    r.single = single_;
    r.trickle_by_link.assign(static_cast<std::size_t>(n_), 0.0);
    r.burst_link = j;
    const SearchOut& best = joint_[static_cast<std::size_t>(j)];
    // Per-link trickles, rescaled proportionally when the Mdata cap
    // binds so they always sum to the reported total (the raw sum
    // replays joint_trickle's accumulation order, keeping trickle_bytes
    // exact).
    double raw_sum = 0.0;
    for (int k = 0; k < n_; ++k) {
      if (k == j || n_ == 1) continue;
      const double tr = trickle_bytes(link(k), best.d, p_);
      r.trickle_by_link[static_cast<std::size_t>(k)] = tr;
      raw_sum += tr;
    }
    r.trickle_bytes = n_ == 1 ? 0.0 : std::min(raw_sum, p_.mdata_bytes);
    if (raw_sum > p_.mdata_bytes && raw_sum > 0.0) {
      const double scale = p_.mdata_bytes / raw_sum;
      for (double& v : r.trickle_by_link) v *= scale;
    }
    r.burst_bytes = p_.mdata_bytes - r.trickle_bytes;
    r.decision = to_result(eval_burst(link(j), best.d, r.burst_bytes, p_, failure_), best.d,
                           lo(), hi(), best.evals);
    return r;
  }

 private:
  /// Every value the grid stages read at d_i = grid_point(lo, hi, n, i).
  struct GridColumn {
    int n{0};                         ///< grid points; 0 when hi <= lo
    std::vector<double> tship;        ///< [i]
    std::vector<double> discount;     ///< [i]: δ(d_i), the same for every link
    std::vector<double> rate;         ///< [cell(i, k)]: rate_bps · availability
    std::vector<double> trickle;      ///< [cell(i, k)]: filled on first use; empty with one link
    std::vector<char> trickle_ready;  ///< [cell(i, k)]
  };

  /// Per-link constants the bounds and the grid stages read.
  struct LinkTerms {
    double setup_s;       ///< session setup: the trickle window starts after it
    double latency_s;     ///< LinkBackend::latency_s()
    double far_rate_bps;  ///< rate · availability just past d0
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

  void build_column(int n) {
    const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n_);
    column_.n = n;
    column_.tship.resize(static_cast<std::size_t>(n));
    column_.discount.resize(static_cast<std::size_t>(n));
    column_.rate.resize(cells);
    if (n_ > 1) {
      column_.trickle.resize(cells);
      column_.trickle_ready.assign(cells, 0);
    }
    for (int i = 0; i < n; ++i) {
      const double d = core::grid_point(lo(), hi(), n, i);
      column_.tship[static_cast<std::size_t>(i)] = tship_s(d, p_);
      column_.discount[static_cast<std::size_t>(i)] = failure_.discount(p_.d0_m, d);
      for (int k = 0; k < n_; ++k) column_.rate[cell(i, k)] = burst_rate_bps(link(k), d, p_);
    }
  }

  /// Link k's trickle at grid point i, computed on first use.
  double grid_trickle(int i, int k) {
    const std::size_t c = cell(i, k);
    if (!column_.trickle_ready[c]) {
      column_.trickle[c] = trickle_bytes(link(k), core::grid_point(lo(), hi(), column_.n, i), p_);
      column_.trickle_ready[c] = 1;
    }
    return column_.trickle[c];
  }

  /// True when the other links provably trickle the whole batch while
  /// link j bursts after a `tship` ferry, so joint_trickle's cap returns
  /// Mdata whatever the exact sum: each link trickles at least its
  /// far_rate_bps over its window (the slack covers the rounding, as in
  /// upper_bounds()).
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
  /// core::optimize().
  void search_joint(int j) {
    const core::OptimizeResult& single = single_[static_cast<std::size_t>(j)];
    SearchOut cand{single.d_opt_m, single.utility, single.evaluations};
    if (n_ > 1) {
      cand = golden_grid_search(
          lo(), hi(),
          [&](int i) {
            return grid_utility(j, i,
                                joint_burst(j, column_.tship[static_cast<std::size_t>(i)],
                                            [&](int k) { return grid_trickle(i, k); }));
          },
          [&](double d) { return joint_utility(j, d); }, opt_);
      // Dominance net: the joint objective dominates the single one
      // pointwise, but the two searches can refine into different
      // brackets — evaluating the joint objective at the single-link
      // optimum guarantees result-level dominance too.
      const double v_single = joint_utility(j, single.d_opt_m);
      ++cand.evals;
      if (v_single > cand.val) {
        cand.d = single.d_opt_m;
        cand.val = v_single;
      }
    }
    joint_[static_cast<std::size_t>(j)] = cand;
    searched_[static_cast<std::size_t>(j)] = 1;
  }

  /// The first searched link with the highest joint utility.
  [[nodiscard]] int first_best() const {
    int best_j = -1;
    for (int j = 0; j < n_; ++j) {
      if (!searched_[static_cast<std::size_t>(j)]) continue;
      if (best_j < 0 ||
          joint_[static_cast<std::size_t>(j)].val > joint_[static_cast<std::size_t>(best_j)].val)
        best_j = j;
    }
    return best_j;
  }

  /// An upper bound on each link's joint utility at every point its
  /// pass-2 search can evaluate (the grid span [d_0, d_{n-1}]: golden
  /// points and the dominance probe stay inside their grid brackets),
  /// from the column alone. On [d_i, d_{i+1}] rates do not rise with
  /// distance, δ does not fall and Tship does not rise, and a trickle's
  /// path-mean rate is at most the rate at the path's near end. So the
  /// utility there is at most the burst evaluated with δ and Tship at
  /// d_{i+1}, the burst link's rate at d_i, and the burst shrunk by every
  /// other link trickling at its d_i rate for the Tship(d_i) window. A
  /// NaN bound (NaN inputs) reads as +inf: never pruned.
  [[nodiscard]] std::vector<double> upper_bounds() const {
    std::vector<double> ub(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      double& b = ub[static_cast<std::size_t>(j)];
      const double latency = terms_[static_cast<std::size_t>(j)].latency_s;
      // From d0 inward, δ(d_{i+1}) / (Tship(d_{i+1}) + latency) caps each
      // interval's bound and only falls, so the scan ends where it can no
      // longer exceed b (the product's rounding is within the slack).
      for (int i = column_.n - 2; i >= 0; --i) {
        const auto top = static_cast<std::size_t>(i + 1);
        if (column_.discount[top] <= b * (column_.tship[top] + latency)) break;
        const double rate = column_.rate[cell(i, j)];
        if (rate <= 0.0) continue;  // dead from d_i on: utility 0
        const double tship_near = column_.tship[static_cast<std::size_t>(i)];
        double others = 0.0;
        for (int k = 0; k < n_; ++k) {
          if (k == j) continue;
          const LinkTerms& t = terms_[static_cast<std::size_t>(k)];
          others += std::max(tship_near - t.setup_s, 0.0) * column_.rate[cell(i, k)] / 8.0;
        }
        const double burst =
            p_.mdata_bytes - std::min(others * (1.0 + kBoundSlack), p_.mdata_bytes);
        const BurstEval e = burst_eval(column_.tship[top], rate, burst, latency,
                                       column_.discount[top]);
        // A zero Cdelay scores 0 in burst_eval, but nearby points do not.
        const double u = e.cdelay_s > 0.0 ? e.utility : kInf;
        b = std::isnan(u) ? kInf : std::max(b, u);
      }
      b *= 1.0 + kBoundSlack;
    }
    return ub;
  }

  /// Link j's utility at grid point i bursting `burst_bytes`: eval_burst
  /// on column values.
  [[nodiscard]] double grid_utility(int j, int i, double burst_bytes) const {
    return burst_eval(column_.tship[static_cast<std::size_t>(i)], column_.rate[cell(i, j)],
                      burst_bytes, terms_[static_cast<std::size_t>(j)].latency_s,
                      column_.discount[static_cast<std::size_t>(i)])
        .utility;
  }

  [[nodiscard]] double joint_utility(int j, double d) const {
    const double burst =
        joint_burst(j, tship_s(d, p_), [&](int k) { return trickle_bytes(link(k), d, p_); });
    return eval_burst(link(j), d, burst, p_, failure_).utility;
  }

  const std::vector<const LinkBackend*>& links_;
  const MultiLinkParams& p_;
  const uav::FailureModel& failure_;
  const core::OptimizeOptions& opt_;
  int n_;
  GridColumn column_;
  std::vector<LinkTerms> terms_;  ///< [k]
  std::vector<core::OptimizeResult> single_;
  std::vector<SearchOut> joint_;
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

std::vector<MultiLinkResult> optimize_multilink_per_link(
    const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
    const uav::FailureModel& failure, core::OptimizeOptions opt) {
  std::vector<MultiLinkResult> out;
  if (links.empty()) return out;
  JointSolve solve(links, p, failure, opt);
  solve.search_all();
  out.reserve(links.size());
  for (int j = 0; j < static_cast<int>(links.size()); ++j) out.push_back(solve.result(j));
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
