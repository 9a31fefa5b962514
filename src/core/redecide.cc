#include "core/redecide.h"

#include <algorithm>
#include <cmath>

#include "core/delay.h"
#include "core/utility.h"
#include "uav/failure.h"

namespace skyferry::core {
namespace {

/// Expected realized mission utility of transmitting at d, under the
/// (re-)estimated models. The mission metric scores delivered fraction
/// over total elapsed time, with partial credit for bytes already across
/// when a crash ends the transfer — so the in-flight objective must be
/// its expectation, not the paper's approach-only U(d): the approach-only
/// form prices the flight *to* d but neither the failure distance the
/// loiter keeps burning while transmitting nor the partial credit a
/// mid-transfer crash still collects. Mid-flight, under a re-estimated
/// (often deadlier) ρ, that bias would steer diversions to far/slow
/// transmit positions that score worse on the metric they are judged by.
///
/// With hazard ρ per meter at speed v (λ = ρ·v per second), approach
/// A = tship(d), transfer T = ttx(d), and t0 seconds already flown
/// (sunk, but in the metric's denominator):
///
///   E[U] = e^{−λA} · [ e^{−λT}/(t0+A+T)
///            + ∫₀ᵀ λ e^{−λτ} · (τ/T)/(t0+A+τ) dτ ]
///
/// The crash-mid-transfer integral has no closed form; with λT ≪ 1 and
/// T ≪ t0+A at mission scales the integrand is almost linear in τ, so a
/// 4-point Gauss–Legendre rule is accurate to ~1e-9 relative — and this
/// sits in the optimizer's inner loop under BM_ReDecision's 10 µs ceiling.
double expected_mission_utility(const CommDelayModel& delay, double rho, double speed_mps,
                                double elapsed_s, double d_m) {
  const double A = delay.tship_s(d_m);
  const double T = delay.ttx_s(d_m);
  if (!(A >= 0.0) || A == CommDelayModel::kInfiniteDelay) return 0.0;
  if (!(T >= 0.0) || T == CommDelayModel::kInfiniteDelay) return 0.0;
  const double base = elapsed_s + A;
  if (!(base + T > 0.0)) return 0.0;
  const double lam = std::max(rho, 0.0) * speed_mps;
  const double full = std::exp(-lam * T) / (base + T);
  double partial = 0.0;
  if (lam > 0.0 && T > 0.0) {
    static constexpr double kNode[2] = {0.3399810435848563, 0.8611363115940526};
    static constexpr double kWeight[2] = {0.6521451548625461, 0.3478548451374538};
    const double half = 0.5 * T;
    double sum = 0.0;
    for (int i = 0; i < 2; ++i) {
      const double tau_lo = half * (1.0 - kNode[i]);
      const double tau_hi = half * (1.0 + kNode[i]);
      sum += kWeight[i] * (std::exp(-lam * tau_lo) * (tau_lo / T) / (base + tau_lo) +
                           std::exp(-lam * tau_hi) * (tau_hi / T) / (base + tau_hi));
    }
    partial = lam * half * sum;
  }
  return std::exp(-lam * A) * (full + partial);
}

}  // namespace

PaperLogThroughput reestimated_model(const PaperLogThroughput& nominal,
                                     const ctrl::ChannelEstimate& est, double min_confidence) {
  // Fitted shape, if it is trustworthy and physically sane: throughput
  // must decrease with distance (a < 0) and be positive somewhere
  // (b > 0); a noisy narrow-window fit can violate either.
  if (est.confidence >= min_confidence && est.a < 0.0 && est.b > 0.0) {
    return {est.a, est.b, "re-estimated-fit"};
  }
  // Fallback: the nominal shape scaled by the robust gain. For the
  // log2 form, gain·scale·(a·log2 d + b) == scale·(g·a·log2 d + g·b).
  const double g = (std::isfinite(est.gain) && est.gain > 0.0) ? est.gain : 1.0;
  return {nominal.a() * g, nominal.b() * g, "re-estimated-gain"};
}

ReDecision ReDecisionPolicy::consider(const ReDecisionInput& in) {
  ReDecision out;
  out.target_d_m = in.target_d_m;

  if (redecisions_ >= cfg_.max_redecisions) {
    out.reason = "max-redecisions";
    return out;
  }
  // Commit-point guard: the remaining approach is sunk, never thrash it.
  if (in.current_d_m - in.target_d_m <= cfg_.commit_margin_m) {
    out.reason = "committed";
    return out;
  }
  // Progress cooldown between re-decisions (hysteresis partner to the
  // estimator re-arm the caller performs after a taken re-decision).
  if (last_redecide_d_m_ >= 0.0 && last_redecide_d_m_ - in.current_d_m < cfg_.cooldown_m) {
    out.reason = "cooldown";
    return out;
  }
  // Trigger: either observable has diverged. Without a trigger the
  // optimizer is never re-run — the zero-mismatch bit-identity invariant.
  const bool channel_tripped = in.divergence >= trigger_.divergence_threshold;
  const bool rho_tripped = in.rho_rel_error >= trigger_.rho_rel_threshold;
  if (!channel_tripped && !rho_tripped) {
    out.reason = "no-trigger";
    return out;
  }
  // A tripped channel without a usable estimate is the degradation
  // ladder's business (conservative mode), not a re-decision.
  if (channel_tripped && (!in.channel || in.channel->confidence < trigger_.min_confidence)) {
    out.reason = "low-confidence";
    return out;
  }
  if (rho_tripped && !channel_tripped && !in.rho_hat) {
    out.reason = "no-rho-estimate";
    return out;
  }

  // A rho-only trip re-decides under the *nominal* channel model: the
  // channel detector stayed quiet, so the fit window is pure probe
  // noise — feeding it to the optimizer would let that noise fabricate
  // phantom improvement and steer the diversion.
  const PaperLogThroughput model =
      channel_tripped ? reestimated_model(nominal_, *in.channel, trigger_.min_confidence)
                      : PaperLogThroughput{nominal_.a(), nominal_.b(), "nominal"};
  const uav::FailureModel failure(in.rho_hat.value_or(in.nominal_rho));
  const DeliveryParams params{in.current_d_m, in.speed_mps, in.mdata_bytes, in.min_distance_m};
  const CommDelayModel delay(model, params);
  const auto objective = [&](double d) {
    return expected_mission_utility(delay, failure.rho(), in.speed_mps, in.elapsed_s, d);
  };
  const OptimizeResult opt =
      optimize_objective(UtilityFunction(delay, failure), objective, cfg_.optimize);
  out.predicted_utility = opt.utility;

  // Minimum-improvement gate: compare against holding the current plan
  // under the same re-estimated models and objective.
  const double hold_utility =
      objective(std::clamp(in.target_d_m, in.min_distance_m, in.current_d_m));
  out.predicted_gain_rel =
      hold_utility > 0.0 ? opt.utility / hold_utility - 1.0
                         : (opt.utility > 0.0 ? 1.0 : 0.0);
  if (out.predicted_gain_rel < cfg_.min_improvement_rel) {
    out.reason = "below-improvement-gate";
    return out;
  }

  out.redecided = true;
  out.target_d_m = opt.d_opt_m;
  out.reason = channel_tripped ? "channel-divergence" : "rho-divergence";
  ++redecisions_;
  last_redecide_d_m_ = in.current_d_m;
  return out;
}

}  // namespace skyferry::core
