// Joint (link, d) selection: "ship a trickle now over cellular while
// ferrying the bulk for the 802.11n burst."
//
// One link is elected the *burst* link: the UAV ferries to distance d
// and pushes the remaining batch through it, exactly the paper's
// delayed-gratification tradeoff. Every *other* enabled link trickles
// in the background during the ferry leg: a link with availability a,
// session setup T_setup and rate curve s(x) moves
//
//   trickle_bytes = a · max(Tship − T_setup, 0) · mean s along the path / 8
//
// (deterministic trapezoid mean over the flown [d, d0] segment), which
// shrinks the burst to Mdata − Σ trickle and therefore Ttx. The joint
// objective for burst link j is the paper's U(d) with that smaller
// burst plus j's fixed session latency, discounted by j's availability:
//
//   U_j(d) = exp(−ρ(d0−d)) / (Tship + burst·8/(s_j(d)·a_j) + latency_j)
//
// Two exact contracts, both enforced by tests/link/:
//  - *Bit-identity*: with a single 802.11n backend (latency 0,
//    availability 1) the trickle sum is empty, so U_j(d) reduces to the
//    identical FP expression core::UtilityFunction evaluates, and the
//    search below replays core::optimize()'s exact schedule — the
//    decision matches the legacy single-link path bit for bit.
//  - *Dominance*: trickling never hurts. U_joint_j(d) ≥ U_single_j(d)
//    pointwise even in floating point (the trickle only shrinks the
//    Ttx numerator, and IEEE −, ·, / are monotone), and the optimizer
//    additionally evaluates each joint objective at its link's
//    single-link optimum, so the returned utility is ≥ the best
//    single-link utility on every input.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/optimizer.h"
#include "link/backend.h"
#include "uav/failure.h"

namespace skyferry::link {

/// An owning, validated collection of link backends, built in memory
/// from configs: every backend goes through make_backend (and so
/// LinkBackendConfig::validate()) before the set exists.
class LinkSet {
 public:
  LinkSet() = default;
  /// Validates and builds every backend; throws ConfigError.
  explicit LinkSet(std::vector<LinkBackendConfig> configs);

  [[nodiscard]] std::size_t size() const noexcept { return backends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return backends_.empty(); }
  [[nodiscard]] const LinkBackend& backend(std::size_t i) const noexcept { return *backends_[i]; }
  [[nodiscard]] const std::vector<LinkBackendConfig>& configs() const noexcept { return configs_; }
  /// Non-owning views in index order, the shape optimize_multilink takes.
  [[nodiscard]] std::vector<const LinkBackend*> views() const;

 private:
  std::vector<LinkBackendConfig> configs_;
  std::vector<std::unique_ptr<LinkBackend>> backends_;
};

/// The decision inputs (mirrors core::DeliveryParams plus ρ's model).
struct MultiLinkParams {
  double d0_m{0.0};
  double speed_mps{1.0};
  double mdata_bytes{0.0};
  double min_distance_m{20.0};
};

/// One joint decision: which link bursts, where, and what each
/// background link trickled by then.
struct MultiLinkResult {
  /// The burst decision at the elected link: d*, joint utility,
  /// Cdelay/discount decomposition, boundary classification — the same
  /// shape core::optimize() returns.
  core::OptimizeResult decision{};
  int burst_link{-1};            ///< index into the link list; -1 if none usable
  double trickle_bytes{0.0};     ///< Σ background bytes at d*
  double burst_bytes{0.0};       ///< Mdata − trickle_bytes
  /// Per-link trickle split; 0 at the burst link. Rescaled so it sums
  /// to trickle_bytes (up to FP rounding) when the Mdata cap binds.
  std::vector<double> trickle_by_link;
  /// Links the free election ruled out by their utility bound alone,
  /// without a joint search; 0 for pinned elections.
  int links_pruned{0};
};

/// Background trickle of `bk` while ferrying from d0 to d at speed v:
/// availability · max(Tship − setup, 0) · path-mean rate / 8. Exposed
/// for tests and the fleet engine's arrival credit.
[[nodiscard]] double trickle_bytes(const LinkBackend& bk, double d_m, const MultiLinkParams& p);

/// Joint (link, d) optimization over `links`: the free election of the
/// burst link. A link whose rate curve is dead on the whole
/// [min_d, d0] interval scores utility 0 and loses the election to any
/// live link; with an empty `links` list the result has burst_link == -1
/// and zero utility. Every bound below is valid because every rate curve
/// is non-increasing in distance. Each search's grid stage skips blocks
/// of grid points whose utility bound falls strictly below the best
/// point found (core::pruned_grid_scan). The links are searched best
/// bound first, and a link whose bound falls strictly below the best
/// joint utility found runs no search at all: the result is
/// bit-identical to the exhaustive election. decision.grid_evaluated
/// counts the grid points the elected link's joint search evaluated (its
/// single-link search with one link).
[[nodiscard]] MultiLinkResult optimize_multilink(const std::vector<const LinkBackend*>& links,
                                                 const MultiLinkParams& p,
                                                 const uav::FailureModel& failure,
                                                 core::OptimizeOptions opt = {});

/// Every link's single-link decision (no background trickle): the
/// legacy "now or later?" problem on each link's own rate, latency and
/// availability, solved by the pass 1 each joint search runs for its
/// dominance net. Element k is link k's; grid_evaluated counts its grid
/// stage's points. The joint decision's utility is at least each
/// element's (the dominance contract). Empty `links`: empty result.
[[nodiscard]] std::vector<core::OptimizeResult> single_link_decisions(
    const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
    const uav::FailureModel& failure, core::OptimizeOptions opt = {});

/// A re-election's answer (elect_switch): the election pinned to the
/// link the mission flies, and the best link to switch to, if any.
struct SwitchElection {
  MultiLinkResult stay;  ///< the joint decision with the burst pinned to the stay link
  /// The first other link with the highest joint utility, pinned, when
  /// that utility is positive and at least (1 + commit_margin) times
  /// stay's; burst_link == -1 when no link clears that floor.
  MultiLinkResult challenger;
  int links_pruned{0};  ///< challengers ruled out by their utility bound alone
};

/// The switch election from link `stay`: one solve that runs stay's
/// pinned search and bounds every other link against the larger of the
/// commit floor, (1 + commit_margin)·stay utility, and the best
/// challenger found, searching a link only where its bound reaches that
/// bar. Bit for bit what pinning every link and comparing would answer.
/// `stay` outside `links` (an empty list included): no usable election,
/// both burst_link == -1.
[[nodiscard]] SwitchElection elect_switch(const std::vector<const LinkBackend*>& links,
                                          const MultiLinkParams& p,
                                          const uav::FailureModel& failure, int stay,
                                          double commit_margin, core::OptimizeOptions opt = {});

}  // namespace skyferry::link
