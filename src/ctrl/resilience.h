// Mission resilience primitives: online detection that the world has
// drifted away from the nominal models the now-or-later decision was
// computed from, and the health-driven degradation ladder that decides
// what to do about it.
//
// The paper's decision is solved once from the fitted median throughput
// s(d) and the assumed failure rate ρ — exactly the two quantities that
// drift in flight (wind, multipath, battery aging). This header provides
// the in-flight observers:
//
//  * OnlineChannelEstimator — folds throughput probes into a windowed
//    log2-fit (the paper's own model shape) with a confidence score, and
//    maintains an EWMA + two-sided CUSUM divergence statistic of the
//    observations against the nominal fit. Non-finite or non-positive
//    samples are rejected and counted, mirroring sim::Simulator's
//    NaN-time guard; a window below min_samples returns a tagged
//    "no estimate" (nullopt) instead of a garbage fit.
//  * HazardRateEstimator — EWMA over noisy failure-rate observations
//    (the paper derives ρ from the battery-limited range, so battery
//    drain telemetry observes ρ directly), same rejection discipline.
//  * DegradedModeController — the monotone fallback ladder
//    nominal → re-estimated → conservative-transmit-now, stepped by
//    health signals (estimator confidence, divergence, control-channel
//    retry fraction, battery floor). Forward-only by construction, so
//    the mission mode can never thrash.
//
// The re-decision itself (re-running the optimizer on the re-estimated
// (s(d), ρ)) lives in core/redecide.h — core already depends on ctrl,
// not the other way around.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace skyferry::ctrl {

struct ChannelEstimatorConfig {
  /// Ring-buffer capacity of the sample window.
  std::size_t window{64};
  /// Below this many accepted samples estimate() is a tagged nullopt.
  std::size_t min_samples{8};
  /// EWMA gain of the smoothed residual z-score.
  double ewma_alpha{0.2};
  /// CUSUM slack per sample, in units of the assumed noise sigma. The
  /// decision threshold is DegradationConfig::divergence_threshold.
  double cusum_k{0.5};
  /// Assumed relative (log-domain) noise sigma of one throughput probe;
  /// the residual z-score is log(obs/nominal) / noise_rel.
  double noise_rel{0.12};
};

/// One accepted (distance, throughput) probe.
struct ChannelSample {
  double distance_m{0.0};
  double throughput_bps{0.0};
};

/// Windowed re-fit of the paper's throughput shape s(d) = scale·(a·log2 d + b).
struct ChannelEstimate {
  double a{0.0};          ///< fitted slope against log2(d) (scale units)
  double b{0.0};          ///< fitted intercept (scale units)
  double gain{1.0};       ///< robust multiplicative error vs nominal, exp(mean log ratio)
  double r_squared{0.0};  ///< fit quality over the window
  double stderr_rel{0.0}; ///< residual sigma of log(obs/fit) — the fit's CI width
  std::size_t samples{0};
  /// [0, 1]: r² shrunk by the sample count — the ladder's "can I trust
  /// the re-estimate" signal.
  double confidence{0.0};
};

class OnlineChannelEstimator {
 public:
  /// `nominal_a`/`nominal_b`/`scale` describe the planner's model
  /// s(d) = scale·(a·log2 d + b) — the hypothesis the divergence
  /// statistic tests against.
  OnlineChannelEstimator(ChannelEstimatorConfig cfg, double nominal_a, double nominal_b,
                         double scale = 1e6) noexcept;

  /// Fold one probe in. Returns false (and counts the rejection) for
  /// NaN/Inf or non-positive distance, or NaN/Inf/negative throughput.
  bool add_sample(double distance_m, double throughput_bps) noexcept;

  /// Windowed log2-fit; tagged "no estimate" (nullopt) below
  /// cfg.min_samples accepted samples — never a garbage fit.
  [[nodiscard]] std::optional<ChannelEstimate> estimate() const;

  /// Current divergence score: max of the two one-sided CUSUM sums of
  /// the per-sample z-scores. 0 when the window agrees with nominal.
  [[nodiscard]] double divergence() const noexcept { return std::max(cusum_pos_, cusum_neg_); }
  /// Smoothed residual z-score (signed: negative = worse than nominal).
  [[nodiscard]] double ewma() const noexcept { return ewma_; }

  /// Re-arm the detector after a re-decision absorbed the drift: clears
  /// the CUSUM/EWMA state *and* the sample window (the old window was
  /// explained by the old model).
  void rearm() noexcept;

  [[nodiscard]] std::size_t samples() const noexcept { return buf_.size(); }
  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] const ChannelEstimatorConfig& config() const noexcept { return cfg_; }

  /// Nominal prediction the divergence is measured against [bit/s].
  [[nodiscard]] double nominal_bps(double distance_m) const noexcept;

 private:
  ChannelEstimatorConfig cfg_;
  double nominal_a_;
  double nominal_b_;
  double scale_;
  std::vector<ChannelSample> buf_;  ///< ring buffer, capacity cfg_.window
  std::size_t next_{0};
  double ewma_{0.0};
  double cusum_pos_{0.0};
  double cusum_neg_{0.0};
  std::uint64_t accepted_{0};
  std::uint64_t rejected_{0};
};

struct HazardEstimatorConfig {
  double alpha{0.15};  ///< EWMA gain
  /// Below this many accepted observations rho() is a tagged nullopt.
  /// Sized so the EWMA's early-sample variance is well inside the
  /// default 25% relative-error trip threshold (no false rho alarms).
  std::size_t min_samples{8};
};

/// Online failure-rate tracker. The paper's ρ is the inverse of the
/// battery-limited range, so periodic battery-drain telemetry yields
/// direct (noisy) ρ observations; this smooths them with the same
/// reject-and-count discipline as the channel estimator.
class HazardRateEstimator {
 public:
  explicit HazardRateEstimator(HazardEstimatorConfig cfg = {}) noexcept : cfg_(cfg) {}

  /// Returns false (counted) for NaN/Inf or negative observations.
  bool add_sample(double rho_per_m) noexcept;

  /// Smoothed ρ; tagged nullopt below cfg.min_samples.
  [[nodiscard]] std::optional<double> rho() const noexcept;

  /// |rho_hat/nominal - 1|, or 0 while there is no estimate.
  [[nodiscard]] double relative_error_vs(double nominal_rho) const noexcept;

  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  HazardEstimatorConfig cfg_;
  double ewma_{0.0};
  std::uint64_t accepted_{0};
  std::uint64_t rejected_{0};
};

/// The degradation ladder, most capable first. Transitions are
/// forward-only (a mission never un-degrades), which is what makes the
/// mode sequence thrash-free by construction.
enum class ResilienceMode : std::uint8_t {
  kNominal = 0,      ///< fly the static plan
  kReEstimated = 1,  ///< re-run the decision on re-estimated (s(d), rho)
  kConservative = 2, ///< model untrustworthy or mission at risk: transmit now
};

[[nodiscard]] const char* to_string(ResilienceMode m) noexcept;

struct DegradationConfig {
  /// Channel divergence (OnlineChannelEstimator::divergence()) at which
  /// the ladder leaves kNominal. These three fields are also
  /// core::ReDecisionPolicy's trigger.
  double divergence_threshold{8.0};
  /// ρ relative error at which the ladder leaves kNominal.
  double rho_rel_threshold{0.25};
  /// Estimator confidence below which a detected mismatch cannot be
  /// re-estimated — degrade straight to conservative.
  double min_confidence{0.25};
  /// Control-channel retry fraction (retries per reliable send) above
  /// which the rendezvous negotiation is considered failing.
  double control_retry_threshold{3.0};
  /// Battery state-of-charge floor.
  double battery_floor_fraction{0.15};
};

/// Health snapshot the controller steps on. Defaults are "all healthy".
struct HealthSignals {
  double divergence{0.0};
  double rho_rel_error{0.0};
  double estimator_confidence{1.0};
  double control_retry_fraction{0.0};
  double battery_fraction{1.0};
};

class DegradedModeController {
 public:
  explicit DegradedModeController(DegradationConfig cfg = {}) noexcept : cfg_(cfg) {}

  /// Fold one health snapshot in; returns the (possibly stepped) mode.
  /// Monotone: the returned mode is never less degraded than before.
  ResilienceMode update(const HealthSignals& h) noexcept;

  [[nodiscard]] ResilienceMode mode() const noexcept { return mode_; }
  [[nodiscard]] int transitions() const noexcept { return transitions_; }
  [[nodiscard]] const DegradationConfig& config() const noexcept { return cfg_; }

 private:
  DegradationConfig cfg_;
  ResilienceMode mode_{ResilienceMode::kNominal};
  int transitions_{0};
};

}  // namespace skyferry::ctrl
