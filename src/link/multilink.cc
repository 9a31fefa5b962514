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

/// One joint solve: pass 1 searches each link alone, pass 2 runs each
/// link's joint search with the others trickling. All 2n searches scan
/// the same grid, so their grid stages read one column computed up
/// front; only the golden-section refinement evaluates live. The column
/// is per-solve working memory, so concurrent solves share nothing
/// mutable.
class JointSolve {
 public:
  JointSolve(const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
             const uav::FailureModel& failure, const core::OptimizeOptions& opt)
      : links_(links), p_(p), failure_(failure), n_(static_cast<int>(links.size())) {
    const double lo = p.min_distance_m;
    const double hi = p.d0_m;
    if (hi > lo) build_column(lo, hi, core::grid_size(opt));

    // Pass 1: each link alone — the legacy "now or later?" problem on
    // that link's own rate/latency/availability profile.
    single_.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      const LinkBackend& bk = link(j);
      const SearchOut s = golden_grid_search(
          lo, hi, [&](int i) { return grid_utility(j, i, p.mdata_bytes); },
          [&](double d) { return eval_burst(bk, d, p.mdata_bytes, p, failure).utility; }, opt);
      single_[static_cast<std::size_t>(j)] =
          to_result(eval_burst(bk, s.d, p.mdata_bytes, p, failure), s.d, lo, hi, s.evals);
    }

    // Pass 2: each link's joint search. With one link the joint
    // objective IS the single objective — reuse the pass-1 result
    // verbatim, which is what makes the single-backend configuration
    // bit-identical to core::optimize().
    joint_.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      const core::OptimizeResult& single = single_[static_cast<std::size_t>(j)];
      SearchOut cand{single.d_opt_m, single.utility, single.evaluations};
      if (n_ > 1) {
        cand = golden_grid_search(
            lo, hi,
            [&](int i) {
              const double trickle = joint_trickle(n_, j, p.mdata_bytes, [&](int k) {
                return column_.trickle[cell(i, k)];
              });
              return grid_utility(j, i, p.mdata_bytes - trickle);
            },
            [&](double d) { return joint_utility(j, d); }, opt);
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
    }
  }

  /// The free election: the first link with the highest joint utility.
  [[nodiscard]] int elected() const {
    int best_j = 0;
    for (int j = 1; j < n_; ++j) {
      if (joint_[static_cast<std::size_t>(j)].val > joint_[static_cast<std::size_t>(best_j)].val)
        best_j = j;
    }
    return best_j;
  }

  /// Link j's pinned election, finalized with its trickle split.
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
                           p_.min_distance_m, p_.d0_m, best.evals);
    return r;
  }

 private:
  /// Every value the grid stages read at d_i = grid_point(lo, hi, n, i).
  struct GridColumn {
    std::vector<double> tship;     ///< [i]
    std::vector<double> discount;  ///< [i]: δ(d_i), the same for every link
    std::vector<double> rate;      ///< [cell(i, k)]: rate_bps · availability
    std::vector<double> trickle;   ///< [cell(i, k)]: empty with one link
  };

  [[nodiscard]] const LinkBackend& link(int k) const {
    return *links_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::size_t cell(int i, int k) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(k);
  }

  void build_column(double lo, double hi, int n) {
    const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n_);
    column_.tship.resize(static_cast<std::size_t>(n));
    column_.discount.resize(static_cast<std::size_t>(n));
    column_.rate.resize(cells);
    if (n_ > 1) column_.trickle.resize(cells);
    for (int i = 0; i < n; ++i) {
      const double d = core::grid_point(lo, hi, n, i);
      column_.tship[static_cast<std::size_t>(i)] = tship_s(d, p_);
      column_.discount[static_cast<std::size_t>(i)] = failure_.discount(p_.d0_m, d);
      for (int k = 0; k < n_; ++k) {
        column_.rate[cell(i, k)] = burst_rate_bps(link(k), d, p_);
        if (n_ > 1) column_.trickle[cell(i, k)] = trickle_bytes(link(k), d, p_);
      }
    }
  }

  /// Link j's utility at grid point i bursting `burst_bytes`: eval_burst
  /// on column values.
  [[nodiscard]] double grid_utility(int j, int i, double burst_bytes) const {
    return burst_eval(column_.tship[static_cast<std::size_t>(i)], column_.rate[cell(i, j)],
                      burst_bytes, link(j).latency_s(),
                      column_.discount[static_cast<std::size_t>(i)])
        .utility;
  }

  [[nodiscard]] double joint_utility(int j, double d) const {
    const double trickle =
        joint_trickle(n_, j, p_.mdata_bytes, [&](int k) { return trickle_bytes(link(k), d, p_); });
    return eval_burst(link(j), d, p_.mdata_bytes - trickle, p_, failure_).utility;
  }

  const std::vector<const LinkBackend*>& links_;
  const MultiLinkParams& p_;
  const uav::FailureModel& failure_;
  int n_;
  GridColumn column_;
  std::vector<core::OptimizeResult> single_;
  std::vector<SearchOut> joint_;
};

}  // namespace

MultiLinkResult optimize_multilink(const std::vector<const LinkBackend*>& links,
                                   const MultiLinkParams& p, const uav::FailureModel& failure,
                                   core::OptimizeOptions opt) {
  if (links.empty()) return {};
  const JointSolve solve(links, p, failure, opt);
  return solve.result(solve.elected());
}

std::vector<MultiLinkResult> optimize_multilink_per_link(
    const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
    const uav::FailureModel& failure, core::OptimizeOptions opt) {
  std::vector<MultiLinkResult> out;
  if (links.empty()) return out;
  const JointSolve solve(links, p, failure, opt);
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
