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
  /// Per-link single-link decisions (no background trickle), for
  /// dominance checks and the fig_multilink comparison.
  std::vector<core::OptimizeResult> single;
};

/// Background trickle of `bk` while ferrying from d0 to d at speed v:
/// availability · max(Tship − setup, 0) · path-mean rate / 8. Exposed
/// for tests and the fleet engine's arrival credit.
[[nodiscard]] double trickle_bytes(const LinkBackend& bk, double d_m, const MultiLinkParams& p);

/// Joint (link, d) optimization over `links`: the free election of the
/// burst link. A link whose rate curve is dead on the whole
/// [min_d, d0] interval scores utility 0 and loses the election to any
/// live link; with an empty `links` list the result has burst_link == -1
/// and zero utility.
[[nodiscard]] MultiLinkResult optimize_multilink(const std::vector<const LinkBackend*>& links,
                                                 const MultiLinkParams& p,
                                                 const uav::FailureModel& failure,
                                                 core::OptimizeOptions opt = {});

/// Every link's pinned election from the one solve optimize_multilink
/// runs: element j is the joint decision with the burst pinned to link j
/// (burst_link == j), finalized with its own trickle split. The free
/// election is the element with the highest decision utility (the first
/// on ties), bit for bit. One link: one element, the free election.
/// Empty `links`: empty result.
[[nodiscard]] std::vector<MultiLinkResult> optimize_multilink_per_link(
    const std::vector<const LinkBackend*>& links, const MultiLinkParams& p,
    const uav::FailureModel& failure, core::OptimizeOptions opt = {});

}  // namespace skyferry::link
