// One fault-injected delivery mission, end to end, on the discrete-event
// simulator: a scout with a collected batch runs the now-or-later
// decision, ferries to the transmit position (GPS dropouts pause the
// approach, a sampled crash distance may end it), negotiates the
// rendezvous over the lossy control channel with retry/backoff, then
// pushes the batch through selective-repeat ARQ at s(d_opt) while link
// outages eat packets. A stalled transfer retreats, backs off, and
// *resumes* from the ARQ checkpoint — a crash yields the delivered
// prefix, not nothing. This is the executable counterpart of the
// analytic δ(d)·u(d) story.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/redecide.h"
#include "core/scenario.h"
#include "ctrl/control_channel.h"
#include "ctrl/resilience.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/link_chaos.h"
#include "fault/recovery.h"
#include "mac/link.h"
#include "net/arq.h"
#include "net/retry_budget.h"

namespace skyferry::fault {

/// Typed rejection of a malformed TrialSpec/MonteCarloConfig — thrown by
/// validate() before a bad value can become UB (NaN distances, zero
/// trials, empty scenarios) deep inside the simulator.
struct ConfigError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// In-flight resilience stack of one mission (disabled by default — a
/// trial with resilience off is bit-identical to the pre-resilience
/// simulator). When enabled, the scout probes the channel and its
/// battery-derived failure rate at kProbeIntervalS while approaching,
/// feeds a ctrl::OnlineChannelEstimator / HazardRateEstimator, steps the
/// ctrl::DegradedModeController ladder, and lets core::ReDecisionPolicy
/// re-target the transmit position when the divergence detector trips.
/// Transfers run under a deadline-aware net::RetryBudget with an
/// abort-and-ship-closer fallback when the budget is exhausted.
struct ResilienceSpec {
  /// Observation cadence while approaching [s]. Sized so a quadrocopter
  /// at 4.5 m/s collects the estimator's min_samples window well before
  /// the re-decision commit point.
  static constexpr double kProbeIntervalS = 1.0;
  /// Lognormal sigma of one throughput probe (relative, unbiased).
  static constexpr double kProbeNoiseRel = 0.10;
  /// Lognormal sigma of one battery-derived rho observation.
  static constexpr double kRhoNoiseRel = 0.10;
  /// Abort-and-ship-closer: each fallback move closes this fraction of
  /// the remaining gap to the anti-collision floor, at most
  /// kMaxShipCloserMoves times.
  static constexpr double kShipCloserFraction = 0.5;
  static constexpr int kMaxShipCloserMoves = 3;

  bool enabled{false};
  ctrl::ChannelEstimatorConfig estimator{};
  ctrl::HazardEstimatorConfig hazard{};
  /// Also the re-decision trigger (core::ReDecisionPolicy).
  ctrl::DegradationConfig degradation{};
  core::ReDecisionConfig redecision{};
  /// Transfer retry governor. A non-finite deadline_s is replaced by the
  /// trial's max_time_s at mission start.
  net::RetryBudgetConfig retry_budget{};

  /// Throws ConfigError on a non-finite or non-positive divergence
  /// threshold or a non-positive retry budget.
  void validate() const;
};

struct TrialSpec {
  core::Scenario scenario{core::Scenario::quadrocopter()};
  FaultPlan faults{};
  /// Link-chaos overlay on the data link (single-link trials read
  /// link(0)): sustained blackouts gate packet delivery, degradation
  /// epochs scale the transfer rate, and setup failures reject a
  /// negotiated rendezvous before the first packet. The plan's own seed
  /// is ignored here — the chaos stream forks from the trial seed so a
  /// seed sweep varies chaos with everything else. A default (empty)
  /// plan draws nothing and is bit-identical to the pre-chaos trial.
  LinkFaultPlan link_chaos{};
  /// Mission resilience stack (estimator → re-decision → degradation
  /// ladder); off by default.
  ResilienceSpec resilience{};
  /// ARQ transfer config. datagram_bytes == 0 auto-sizes the datagram so
  /// the batch is ~`target_packets` packets (keeps trials cheap without
  /// changing the delivered-bytes resolution materially).
  net::ArqConfig arq{64, 0, 16};
  std::uint32_t target_packets{256};
  /// Rendezvous-negotiation retry policy (control channel).
  ctrl::ReliableSendOptions negotiation{};
  /// Retreat-and-retry policy when the data link stalls mid-transfer.
  BackoffPolicy retreat_backoff{2.0, 2.0, 30.0, 6, 0.1};
  /// Ack-progress stall window; after `retreat_after_stalls` consecutive
  /// stalled windows the attempt suspends and backs off.
  double stall_timeout_s{2.0};
  int retreat_after_stalls{3};
  double max_time_s{7200.0};
  /// Fixed-wing scouts loiter at cruise speed while negotiating and
  /// transmitting, so post-approach time keeps burning failure distance.
  bool loiter_burns_distance{true};

  /// Measure the transfer rate s at the transmit position with the full
  /// PHY/MAC link simulator (one short saturated run at d_opt, seeded
  /// per trial) instead of the analytic paper fit. Monte-Carlo uses the
  /// fast table-driven kAggregate fidelity by default; flip
  /// `link_fidelity` to kPerMpdu for the exchange-by-exchange reference.
  bool use_link_simulator{false};
  mac::LinkFidelity link_fidelity{mac::LinkFidelity::kAggregate};
  /// Channel preset of the measured link (only read when
  /// use_link_simulator is set).
  phy::ChannelConfig link_channel{phy::ChannelConfig::quadrocopter()};
  /// Simulated seconds of the per-trial saturated rate measurement.
  double link_sim_duration_s{2.0};
  /// Cross-trial PER-table cache (kAggregate only). Fill it with
  /// with_shared_link_tables() before a Monte-Carlo fan-out so the
  /// trials share one lazily built, thread-safe cache instead of each
  /// rebuilding the tables; left empty, every trial builds its own.
  /// validate() rejects a cache that does not serve link_channel.
  std::shared_ptr<phy::PerTableCache> link_tables{};

  // Fluent construction: spec.with_scenario(...).with_faults(...).
  TrialSpec& with_scenario(core::Scenario s) {
    scenario = std::move(s);
    return *this;
  }
  TrialSpec& with_faults(FaultPlan p) {
    faults = p;
    return *this;
  }
  TrialSpec& with_link_chaos(LinkFaultPlan p) {
    link_chaos = std::move(p);
    return *this;
  }
  TrialSpec& with_resilience(ResilienceSpec r) {
    resilience = r;
    return *this;
  }
  TrialSpec& with_mismatch(MismatchFaults m) {
    faults.mismatch = m;
    return *this;
  }
  TrialSpec& with_arq(net::ArqConfig c) {
    arq = c;
    return *this;
  }
  TrialSpec& with_target_packets(std::uint32_t n) {
    target_packets = n;
    return *this;
  }
  TrialSpec& with_max_time(double seconds) {
    max_time_s = seconds;
    return *this;
  }
  TrialSpec& with_link_simulator(bool on,
                                 mac::LinkFidelity fidelity = mac::LinkFidelity::kAggregate) {
    use_link_simulator = on;
    link_fidelity = fidelity;
    return *this;
  }
  TrialSpec& with_link_channel(phy::ChannelConfig ch) {
    link_channel = ch;
    return *this;
  }
  /// Call after the link channel is final (the cache is bound to it).
  TrialSpec& with_shared_link_tables() {
    mac::LinkConfig lc;
    lc.channel = link_channel;
    link_tables = mac::make_shared_per_tables(lc);
    return *this;
  }

  /// Reject values that would otherwise surface as NaN propagation or
  /// infinite loops deep in the mission simulator, and a link_tables
  /// cache built for another channel. Throws ConfigError.
  void validate() const;
};

struct TrialResult {
  // Decision inputs/outputs.
  double d_opt_m{0.0};
  double approach_distance_m{0.0};  ///< d0 - d_opt
  double analytic_delivery_probability{0.0};  ///< δ(d_opt)

  // Outcome.
  bool survived_approach{false};
  bool crashed{false};
  bool negotiation_failed{false};
  bool delivered_all{false};
  bool timed_out{false};
  double delivered_bytes{0.0};
  double total_bytes{0.0};
  double completion_time_s{0.0};  ///< delivery time, or end time otherwise
  double crash_distance_m{0.0};   ///< sampled distance-to-failure (inf if off)

  // Recovery-path accounting.
  int rendezvous_attempts{0};   ///< transfer attempts (resumes included)
  std::uint64_t control_retries{0};
  std::uint64_t arq_retransmissions{0};
  /// Link outages and GPS dropouts that start in [0, max_time_s] —
  /// including those after the verdict. The trial stops its event loop
  /// at the verdict and FaultInjector::play_out() replays the rest of
  /// both renewal processes, so these counts are those of a trial run
  /// to max_time_s.
  std::uint64_t link_outages{0};
  std::uint64_t gps_dropouts{0};

  // Link-chaos accounting (all zero when TrialSpec::link_chaos is
  // empty). `incomplete_reason` is the link-level failure taxonomy of an
  // undelivered batch — kStarvedByOutage (the transfer died stalled in
  // an outage/blackout) vs kTimeLimit vs kSessionSetupFailed — and
  // kNone for delivered, crashed, or negotiation-failed missions, whose
  // booleans already tell the story.
  std::uint64_t chaos_losses{0};          ///< packets eaten by injected blackouts
  std::uint64_t chaos_setup_failures{0};  ///< rendezvous setups rejected by chaos
  mac::IncompleteReason incomplete_reason{mac::IncompleteReason::kNone};

  // Resilience accounting. d_final_m == d_opt_m and everything else at
  // its zero default when the resilience stack is off (or never acted).
  double d_final_m{0.0};  ///< distance actually transmitted from
  int redecisions{0};
  int ship_closer_moves{0};
  int final_mode{0};  ///< ctrl::ResilienceMode at mission end, as int
  bool mismatch_detected{false};
  std::uint64_t probes{0};
  std::uint64_t probe_rejects{0};
  /// (delivered_bytes/total_bytes) / completion_time_s — the
  /// fraction-per-second payoff both arms of the mismatch ablation are
  /// scored on; 0 when nothing landed or no time elapsed.
  double delivered_utility{0.0};
};

/// Run one seeded trial. `seed` overrides spec.faults.seed, so a caller
/// can sweep seeds without rebuilding the spec.
[[nodiscard]] TrialResult run_mission_trial(const TrialSpec& spec, std::uint64_t seed);

}  // namespace skyferry::fault
