// The unified "now or later?" decision API. One Query describes one
// delivery decision — where the peer came in range, how fast the UAV
// flies, how much data it carries, how deadly the approach is, and which
// objective to maximize — and one Decision answers it: the transmit
// distance d*, the achieved utility and its decomposition, and which
// backend produced it (O(1) policy-table lookup or the exact optimizer).
//
// The fleet engine, the fig benches and the skyferry_decide server build
// Queries and call DecisionService::decide. Both structs are PODs so a
// batch is one flat span, the service writes answers in place, and the
// hot path allocates nothing.
#pragma once

#include <cstdint>

#include "core/optimizer.h"
#include "uav/failure.h"

namespace skyferry::uav {
struct PlatformSpec;
}

namespace skyferry::policy {

/// Which maximization the query asks for.
enum class Objective : std::uint8_t {
  /// The paper's Eq. (2): argmax U(d) = δ(d)/Cdelay(d) over [d_min, d0].
  kPaperUtility,
  /// Joint (distance, speed) optimization over the platform's speed
  /// envelope with the battery-derived rho(v) (paper Sec. 7).
  kJointSpeed,
};

/// Which engine answered.
enum class Backend : std::uint8_t {
  kExact,  ///< ran the optimizer (grid scan + golden section)
  kTable,  ///< interpolated a compiled PolicyTable — effectively free
};

[[nodiscard]] const char* to_string(Objective o) noexcept;
[[nodiscard]] const char* to_string(Backend b) noexcept;

/// One decision request. Defaults describe the common case (paper
/// utility, exponential failure law); the optional fields widen the same
/// struct to the joint speed objective instead of forking the API.
struct Query {
  double d0_m{0.0};             ///< distance at which the link came in range
  double speed_mps{1.0};        ///< approach speed v > 0
  double mdata_bytes{0.0};      ///< batch size Mdata
  double min_distance_m{20.0};  ///< anti-collision floor
  double rho_per_m{0.0};        ///< per-meter failure rate ρ

  Objective objective{Objective::kPaperUtility};
  uav::FailureLaw law{uav::FailureLaw::kExponential};
  double weibull_shape{2.0};  ///< used only with FailureLaw::kWeibull

  /// kJointSpeed only: the platform whose speed envelope and battery
  /// drain define rho(v). Must outlive the decide() call.
  const uav::PlatformSpec* platform{nullptr};
  int joint_speed_grid{64};
  double joint_min_speed_mps{0.5};

  /// Optimizer schedule for the exact backend.
  core::OptimizeOptions optimize{};
};

/// One decision answer.
/// Why a multi-link decision was answered by the single-link fallback
/// instead of the joint optimizer. kNone on the normal path; a tagged
/// fallback means the batch kept flowing instead of erroring out.
enum class FallbackReason : std::uint8_t {
  kNone,
  kNoLinkSet,      ///< no (or an empty) LinkSet installed at decide time
  kInvalidBackend  ///< a backend failed validate()
};

/// Stable log tag for a FallbackReason.
[[nodiscard]] constexpr const char* to_string(FallbackReason r) noexcept {
  switch (r) {
    case FallbackReason::kNoLinkSet:
      return "no-link-set";
    case FallbackReason::kInvalidBackend:
      return "invalid-backend";
    case FallbackReason::kNone:
      break;
  }
  return "none";
}

struct Decision {
  double d_opt_m{0.0};
  double v_opt_mps{0.0};  ///< == query speed unless Objective::kJointSpeed
  double utility{0.0};
  double cdelay_s{0.0};
  double discount{0.0};
  /// Effective ρ the answer was computed under (rho(v_opt) for joint
  /// queries, the query's ρ otherwise).
  double rho_per_m{0.0};
  core::Boundary boundary{core::Boundary::kInterior};
  Backend backend{Backend::kExact};
  std::int32_t evaluations{0};
  /// Multi-link graceful degradation tag (kNone outside fallbacks).
  FallbackReason fallback_reason{FallbackReason::kNone};
};

/// One multi-link decision answer: the burst decision in the usual
/// Decision shape plus which link bursts and how the batch splits
/// between the background trickle and the burst.
struct MultiLinkDecision {
  Decision decision{};
  std::int32_t burst_link{-1};  ///< LinkSet index; -1 when no link set
  double trickle_bytes{0.0};    ///< Σ background-link bytes during the ferry leg
  double burst_bytes{0.0};      ///< Mdata − trickle_bytes, shipped at d*
};

/// A re-election's answer (DecisionService::decide_switch): the decision
/// pinned to the link the mission flies, and the link to switch to when
/// one clears the commit floor.
struct SwitchDecision {
  MultiLinkDecision stay;
  /// The first other link with the highest utility, pinned, when that
  /// utility is positive and at least (1 + commit_margin) times stay's;
  /// burst_link -1 when no link is.
  MultiLinkDecision challenger;
};

/// The optimizer's boundary classification (optimizer.cc's finish())
/// applied to an externally produced d over [lo, hi] — the rule the
/// table backend and the accuracy validator use so their labels agree
/// with the exact solver's.
[[nodiscard]] core::Boundary classify_boundary(double d_m, double lo_m, double hi_m) noexcept;

}  // namespace skyferry::policy
