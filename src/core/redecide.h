// Mid-flight re-decision: re-run the now-or-later optimizer on the
// re-estimated (s(d), ρ) when the in-flight divergence detector says the
// nominal models no longer describe the world.
//
// Design constraints (the golden suite enforces all three):
//  * Zero mismatch ⇒ bit-identical to the static d* policy: the
//    optimizer is only ever re-run after the divergence score crosses
//    its threshold, so a mission that never trips flies exactly the
//    static plan.
//  * No thrash: hysteresis (the estimator is re-armed after a
//    re-decision and must re-accumulate evidence), a progress cooldown
//    between re-decisions, a commit-point guard near the transmit
//    position, and a minimum-improvement gate on the predicted utility.
//  * Cheap: one re-decision is one optimize_objective() call on a
//    reduced grid — the BM_ReDecision micro-benchmark pins it at ≤ 10 µs.
#pragma once

#include <optional>

#include "core/optimizer.h"
#include "core/planner.h"
#include "core/throughput_model.h"
#include "ctrl/resilience.h"

namespace skyferry::core {

/// The guard ladder. The trigger itself (divergence and ρ thresholds,
/// minimum estimator confidence) is the degradation ladder's
/// ctrl::DegradationConfig, so the two can never disagree.
struct ReDecisionConfig {
  /// Commit-point guard: within this distance of the current target the
  /// plan is committed and never re-decided (the approach is sunk).
  double commit_margin_m{10.0};
  /// Progress cooldown: at least this much approach progress between
  /// two re-decisions.
  double cooldown_m{5.0};
  /// Minimum predicted relative utility improvement to accept a new
  /// target — below it the old plan stands (anti-thrash). The default is
  /// calibrated to the mission objective, whose expected-realized-utility
  /// surface is flat near the optimum (elapsed mission time dilutes the
  /// transfer-time differences a diversion can still win): even a 3x rho
  /// error moves E[U] by well under 1%, and the predicted gain tracks
  /// the realized Monte-Carlo gain closely, so a small-but-real
  /// improvement is trustworthy. Thrash is held off by the cooldown,
  /// the estimator re-arm, and the re-decision cap, not by this margin.
  double min_improvement_rel{0.002};
  int max_redecisions{8};
  /// Reduced-grid optimizer options for the re-decision hot path. The
  /// mission-objective surface is flat near its optimum, so a 96-point
  /// scan refined to 0.1 m loses nothing measurable and keeps one full
  /// consider() under the BM_ReDecision 10 µs ceiling.
  OptimizeOptions optimize{96, 0.1, 40};
};

/// Everything the policy needs to know at one trigger opportunity.
struct ReDecisionInput {
  double current_d_m{0.0};     ///< distance to the peer right now
  double target_d_m{0.0};      ///< the plan currently being flown
  double min_distance_m{20.0}; ///< anti-collision floor
  double speed_mps{1.0};
  double mdata_bytes{0.0};     ///< remaining batch
  /// Mission time already flown [s]. Sunk, but the realized utility is
  /// delivered fraction over *total* elapsed time, so it sits in the
  /// re-decision objective's denominator and shapes the optimum.
  double elapsed_s{0.0};
  double divergence{0.0};      ///< ctrl::OnlineChannelEstimator::divergence()
  double rho_rel_error{0.0};   ///< ctrl::HazardRateEstimator::relative_error_vs
  /// Channel re-estimate (tagged no-estimate ⇒ no re-decision).
  std::optional<ctrl::ChannelEstimate> channel;
  /// Smoothed ρ estimate; nullopt keeps the nominal ρ.
  std::optional<double> rho_hat;
  double nominal_rho{0.0};
};

struct ReDecision {
  bool redecided{false};
  double target_d_m{0.0};     ///< new plan (== input target when !redecided)
  double predicted_utility{0.0};
  double predicted_gain_rel{0.0};
  const char* reason{"hold"}; ///< why the plan did/didn't change (for logs)
};

/// Build the re-estimated throughput model from a channel estimate, with
/// a sanity ladder: the fitted (a, b) is used only when the fit is
/// trustworthy *and* physically sane (throughput decreasing in
/// distance); otherwise the nominal shape scaled by the robust gain.
/// A pure-gain mismatch makes both branches converge to the same model.
[[nodiscard]] PaperLogThroughput reestimated_model(const PaperLogThroughput& nominal,
                                                   const ctrl::ChannelEstimate& est,
                                                   double min_confidence);

class ReDecisionPolicy {
 public:
  /// `nominal` must outlive the policy (it seeds the re-estimated model).
  /// `trigger` arms a re-decision exactly where it moves the degradation
  /// ladder off kNominal.
  ReDecisionPolicy(ReDecisionConfig cfg, const PaperLogThroughput& nominal,
                   ctrl::DegradationConfig trigger = {}) noexcept
      : cfg_(cfg), trigger_(trigger), nominal_(nominal) {}

  /// Trigger gate + re-optimization. Mutates the policy's hysteresis
  /// state only when a re-decision is actually taken; the caller must
  /// re-arm its estimator after a taken re-decision (the old window was
  /// explained by the old model).
  [[nodiscard]] ReDecision consider(const ReDecisionInput& in);

  [[nodiscard]] int redecisions() const noexcept { return redecisions_; }
  [[nodiscard]] const ReDecisionConfig& config() const noexcept { return cfg_; }

 private:
  ReDecisionConfig cfg_;
  ctrl::DegradationConfig trigger_;
  const PaperLogThroughput& nominal_;
  int redecisions_{0};
  double last_redecide_d_m_{-1.0};  ///< < 0: never re-decided
};

}  // namespace skyferry::core
