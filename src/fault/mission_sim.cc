#include "fault/mission_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "core/planner.h"
#include "ctrl/messages.h"
#include "sim/simulator.h"

namespace skyferry::fault {

void ResilienceSpec::validate() const {
  auto finite = [](double v) { return std::isfinite(v); };
  if (!enabled) return;
  if (!finite(probe_interval_s) || probe_interval_s <= 0.0)
    throw ConfigError("ResilienceSpec: probe_interval_s must be finite and > 0");
  if (!finite(probe_noise_rel) || probe_noise_rel < 0.0)
    throw ConfigError("ResilienceSpec: probe_noise_rel must be finite and >= 0");
  if (!finite(rho_noise_rel) || rho_noise_rel < 0.0)
    throw ConfigError("ResilienceSpec: rho_noise_rel must be finite and >= 0");
  if (!finite(ship_closer_fraction) || ship_closer_fraction <= 0.0 || ship_closer_fraction > 1.0)
    throw ConfigError("ResilienceSpec: ship_closer_fraction must be in (0, 1]");
  if (max_ship_closer_moves < 0)
    throw ConfigError("ResilienceSpec: max_ship_closer_moves must be >= 0");
  if (!finite(degradation.divergence_threshold) || degradation.divergence_threshold <= 0.0)
    throw ConfigError("ResilienceSpec: degradation.divergence_threshold must be finite and > 0");
  if (retry_budget.max_attempts <= 0)
    throw ConfigError("ResilienceSpec: retry_budget.max_attempts must be > 0");
}

void TrialSpec::validate() const {
  auto finite = [](double v) { return std::isfinite(v); };
  if (scenario.name.empty()) throw ConfigError("TrialSpec: scenario has no name (empty scenario?)");
  if (!finite(scenario.d0_m) || scenario.d0_m <= 0.0)
    throw ConfigError("TrialSpec: scenario.d0_m must be finite and > 0");
  if (!finite(scenario.min_distance_m) || scenario.min_distance_m < 0.0)
    throw ConfigError("TrialSpec: scenario.min_distance_m must be finite and >= 0");
  if (!finite(scenario.mdata_bytes) || scenario.mdata_bytes <= 0.0)
    throw ConfigError("TrialSpec: scenario.mdata_bytes must be finite and > 0");
  if (!finite(scenario.speed_mps) || scenario.speed_mps <= 0.0)
    throw ConfigError("TrialSpec: scenario.speed_mps must be finite and > 0");
  if (!finite(scenario.rho_per_m) || scenario.rho_per_m < 0.0)
    throw ConfigError("TrialSpec: scenario.rho_per_m must be finite and >= 0");
  if (!finite(max_time_s) || max_time_s <= 0.0)
    throw ConfigError("TrialSpec: max_time_s must be finite and > 0");
  if (!finite(stall_timeout_s) || stall_timeout_s <= 0.0)
    throw ConfigError("TrialSpec: stall_timeout_s must be finite and > 0");
  if (retreat_after_stalls <= 0) throw ConfigError("TrialSpec: retreat_after_stalls must be > 0");
  if (arq.window == 0) throw ConfigError("TrialSpec: arq.window must be > 0");
  if (target_packets == 0 && arq.datagram_bytes == 0)
    throw ConfigError("TrialSpec: target_packets and arq.datagram_bytes cannot both be 0");
  if (use_link_simulator && (!finite(link_sim_duration_s) || link_sim_duration_s <= 0.0))
    throw ConfigError("TrialSpec: link_sim_duration_s must be finite and > 0");
  const MismatchFaults& mm = faults.mismatch;
  if (!finite(mm.rho_scale) || mm.rho_scale < 0.0)
    throw ConfigError("TrialSpec: faults.mismatch.rho_scale must be finite and >= 0");
  if (!finite(mm.throughput_scale) || mm.throughput_scale < 0.0)
    throw ConfigError("TrialSpec: faults.mismatch.throughput_scale must be finite and >= 0");
  if (!finite(mm.shifted_throughput_scale) || mm.shifted_throughput_scale < 0.0)
    throw ConfigError("TrialSpec: faults.mismatch.shifted_throughput_scale must be finite and >= 0");
  if (!finite(mm.shift_at_fraction) || mm.shift_at_fraction < 0.0 || mm.shift_at_fraction > 1.0)
    throw ConfigError("TrialSpec: faults.mismatch.shift_at_fraction must be in [0, 1]");
  try {
    link_chaos.validate();
  } catch (const std::invalid_argument& e) {
    throw ConfigError(std::string("TrialSpec: ") + e.what());
  }
  resilience.validate();
}

namespace {

ctrl::ControlChannelConfig make_control_cfg(const FaultPlan& plan) {
  ctrl::ControlChannelConfig cfg;
  cfg.loss_probability = plan.control_loss.loss_probability;
  cfg.loss_seed = sim::derive_seed(plan.seed, "fault/ctrlchan");
  return cfg;
}

net::ArqConfig size_arq(const TrialSpec& spec, double batch_bytes) {
  net::ArqConfig arq = spec.arq;
  if (arq.datagram_bytes == 0) {
    const double target = std::max<double>(spec.target_packets, 1.0);
    arq.datagram_bytes = static_cast<std::uint32_t>(
        std::clamp(std::ceil(batch_bytes / target), 256.0, 1048576.0));
  }
  return arq;
}

/// Single-scout trial state machine: Approach -> Negotiate -> Transfer,
/// with crash/outage/loss events arriving from the injector throughout.
class MissionTrial {
 public:
  MissionTrial(const TrialSpec& spec, std::uint64_t seed)
      : spec_(spec),
        model_(spec.scenario.paper_throughput()),
        plan_([&] {
          FaultPlan p = spec.faults;
          p.seed = seed;
          // The mismatch axis scales the *executed* crash law; the
          // planner keeps deciding with the nominal scenario rho.
          if (p.crash.enabled) p.crash.rho_per_m *= p.mismatch.rho_scale;
          return p;
        }()),
        injector_(sim_, plan_),
        control_(sim_, make_control_cfg(plan_)),
        backoff_rng_(sim::derive_seed(plan_.seed, "fault/backoff")),
        probe_rng_(sim::derive_seed(plan_.seed, "resilience/probe")),
        transfer_(size_arq(spec, spec.scenario.mdata_bytes), spec.scenario.mdata_bytes) {
    // Chaos forks from the trial seed (not the plan's own), so a seed
    // sweep varies the chaos realization together with everything else.
    // An empty plan constructs nothing and draws nothing.
    if (spec_.link_chaos.any()) {
      chaos_.emplace(spec_.link_chaos.link(0), sim::derive_seed(plan_.seed, "chaos/mission"));
    }
    if (spec_.resilience.enabled) {
      chan_est_.emplace(spec_.resilience.estimator, model_.a(), model_.b());
      hazard_est_.emplace(spec_.resilience.hazard);
      mode_ctl_.emplace(spec_.resilience.degradation);
      redecide_.emplace(spec_.resilience.redecision, model_, spec_.resilience.degradation);
      net::RetryBudgetConfig rb = spec_.resilience.retry_budget;
      if (!std::isfinite(rb.deadline_s)) rb.deadline_s = spec_.max_time_s;
      retry_budget_ = net::RetryBudget(rb);
    }
  }

  TrialResult run();

 private:
  void begin_approach();
  void resume_approach();   // movement segment while GPS is up
  void pause_approach(double t_s);
  void arrive();
  void negotiate();
  void begin_transfer_attempt();
  void pump();
  void on_stall_tick();
  void on_setup_failure();
  void retreat_and_backoff();
  void crash();
  void finalize(bool delivered);

  // Resilience hooks (all no-ops unless spec.resilience.enabled).
  void probe_tick();
  void divert_to(double new_target_d_m);
  void ship_closer();
  [[nodiscard]] bool can_ship_closer() const {
    return spec_.resilience.enabled &&
           result_.ship_closer_moves < spec_.resilience.max_ship_closer_moves &&
           result_.d_final_m > spec_.scenario.min_distance_m + 1e-6;
  }

  /// Approach distance actually covered so far, including the live
  /// movement segment (if one is in flight).
  [[nodiscard]] double total_flown_m() const {
    double flown = distance_flown_m_;
    if (approaching_ && arrival_event_ != 0) {
      const double covered =
          std::max(0.0, sim_.now() - segment_start_t_) * spec_.scenario.speed_mps;
      flown += std::min(covered, remaining_approach_m_);
    }
    return flown;
  }

  [[nodiscard]] double current_distance_m() const {
    if (!approaching_) return result_.d_final_m;
    return std::max(spec_.scenario.d0_m - total_flown_m(), spec_.scenario.min_distance_m);
  }

  /// Executed-world throughput multiplier (the mismatch chaos axis). The
  /// regime shift latches once the flown fraction of the planned
  /// approach crosses shift_at_fraction.
  [[nodiscard]] double tput_mismatch_scale() const {
    const MismatchFaults& mm = plan_.mismatch;
    if (mm.shift_at_fraction >= 1.0) return mm.throughput_scale;
    const double span = std::max(spec_.scenario.d0_m - spec_.scenario.min_distance_m, 1e-9);
    return total_flown_m() >= mm.shift_at_fraction * span ? mm.shifted_throughput_scale
                                                          : mm.throughput_scale;
  }

  /// Rate the world actually delivers at distance d (mismatch applied).
  [[nodiscard]] double actual_throughput_bps(double distance_m) const {
    const double base = measured_throughput_bps_ >= 0.0 ? measured_throughput_bps_
                                                        : model_.throughput_bps(distance_m);
    return base * tput_mismatch_scale();
  }

  [[nodiscard]] double throughput_bps() const { return actual_throughput_bps(result_.d_final_m); }

  /// Replace the analytic s(d) with a seeded PHY/MAC link-simulator
  /// measurement at the transmit position (TrialSpec::use_link_simulator).
  void measure_link_throughput(std::uint64_t seed, double distance_m) {
    mac::LinkConfig lc;
    lc.channel = spec_.link_channel;
    lc.fidelity = spec_.link_fidelity;
    // Monte-Carlo only needs the rate: skip throughput sampling.
    lc.meter_window_s = std::numeric_limits<double>::infinity();
    lc.shared_tables = spec_.link_tables;
    mac::ArfRate rc;
    mac::LinkSimulator link(lc, rc, sim::derive_seed(seed, "fault/link"));
    const auto r = link.run_saturated(spec_.link_sim_duration_s, mac::static_geometry(distance_m));
    measured_throughput_bps_ = r.mean_goodput_mbps() * 1e6;
  }

  const TrialSpec& spec_;
  core::PaperLogThroughput model_;
  sim::Simulator sim_;
  FaultPlan plan_;
  FaultInjector injector_;
  ctrl::ControlChannel control_;
  sim::Rng backoff_rng_;
  sim::Rng probe_rng_;
  ResumableTransfer transfer_;
  TrialResult result_;
  double measured_throughput_bps_{-1.0};  ///< < 0: use the analytic model
  /// Link-chaos overlay on the data link (engaged only when the spec's
  /// plan has any axis on; single-link trials read link(0)).
  std::optional<LinkChaosStream> chaos_;
  /// Was the link down (baseline outage or injected blackout) when the
  /// last stall window was declared? Distinguishes "starved by outage"
  /// from a plain time limit in the failure taxonomy.
  bool stalled_in_outage_{false};

  // Resilience stack (engaged only when spec.resilience.enabled).
  std::optional<ctrl::OnlineChannelEstimator> chan_est_;
  std::optional<ctrl::HazardRateEstimator> hazard_est_;
  std::optional<ctrl::DegradedModeController> mode_ctl_;
  std::optional<core::ReDecisionPolicy> redecide_;
  net::RetryBudget retry_budget_;

  // Approach bookkeeping: distance accrues only while moving (GPS up).
  double distance_flown_m_{0.0};
  double segment_start_t_{0.0};
  double remaining_approach_m_{0.0};
  bool approaching_{false};
  sim::EventId arrival_event_{0};
  sim::EventId crash_event_{0};

  // Transfer bookkeeping.
  bool transferring_{false};
  double data_busy_until_{0.0};
  std::uint32_t last_progress_{0};
  int consecutive_stalls_{0};
  int stall_generation_{0};
  bool done_{false};
};

TrialResult MissionTrial::run() {
  const auto& scen = spec_.scenario;
  const core::DelayedGratificationPlanner planner(model_, scen.failure_model());
  const core::Decision decision = planner.decide(scen.delivery_params());

  result_.d_opt_m = decision.strategy.target_distance_m;
  result_.d_final_m = result_.d_opt_m;  // resilience may move this
  result_.approach_distance_m = scen.d0_m - result_.d_opt_m;
  result_.analytic_delivery_probability = decision.delivery_probability;
  result_.total_bytes = scen.mdata_bytes;
  result_.crash_distance_m = injector_.sample_crash_distance(0);
  if (spec_.use_link_simulator) measure_link_throughput(plan_.seed, result_.d_opt_m);

  injector_.start(spec_.max_time_s);
  injector_.on_gps_change([this](bool up, double t) {
    if (done_ || !approaching_) return;
    if (up) {
      resume_approach();
    } else {
      pause_approach(t);
    }
  });

  begin_approach();
  sim_.run_until(spec_.max_time_s);
  if (!done_) {
    result_.timed_out = true;
    if (result_.incomplete_reason == mac::IncompleteReason::kNone) {
      result_.incomplete_reason = stalled_in_outage_ ? mac::IncompleteReason::kStarvedByOutage
                                                     : mac::IncompleteReason::kTimeLimit;
    }
    finalize(false);
  }
  // A verdict stops the event loop early; the outage/GPS counters still
  // cover the whole [0, max_time_s] window.
  injector_.play_out();
  for (const auto& ev : injector_.log()) {
    result_.link_outages += (ev.kind == FaultKind::kLinkDown) ? 1 : 0;
    result_.gps_dropouts += (ev.kind == FaultKind::kGpsDown) ? 1 : 0;
  }
  return result_;
}

void MissionTrial::begin_approach() {
  remaining_approach_m_ = std::max(result_.approach_distance_m, 0.0);
  approaching_ = true;
  if (spec_.resilience.enabled) {
    sim::schedule_periodic(sim_, spec_.resilience.probe_interval_s, [this] {
      if (done_ || !approaching_) return false;
      probe_tick();
      return !done_ && approaching_;
    });
  }
  if (injector_.gps_up()) {
    resume_approach();
  }  // else: the first gps-up flip starts the movement
}

void MissionTrial::probe_tick() {
  const ResilienceSpec& rs = spec_.resilience;
  const double d = current_distance_m();
  // Unbiased lognormal probe noise: E[obs] equals the executed rate.
  const double sn = rs.probe_noise_rel;
  const double obs = model_.throughput_bps(d) * tput_mismatch_scale() *
                     std::exp(probe_rng_.gaussian(-0.5 * sn * sn, sn));
  ++result_.probes;
  if (!chan_est_->add_sample(d, obs)) ++result_.probe_rejects;
  if (plan_.crash.enabled) {
    // Battery-drain telemetry observes the executed rho directly (the
    // paper's rho is the inverse battery-limited range).
    const double sr = rs.rho_noise_rel;
    hazard_est_->add_sample(plan_.crash.rho_per_m *
                            std::exp(probe_rng_.gaussian(-0.5 * sr * sr, sr)));
  }

  ctrl::HealthSignals h;
  const auto est = chan_est_->estimate();
  // A window below min_samples is tagged "no estimate": too early to
  // judge the model, so only mission-risk signals may step the ladder.
  h.divergence = est ? chan_est_->divergence() : 0.0;
  h.rho_rel_error = hazard_est_->relative_error_vs(spec_.scenario.rho_per_m);
  h.estimator_confidence = est ? est->confidence : 1.0;
  h.control_retry_fraction =
      static_cast<double>(control_.reliable_retries()) /
      std::max(1.0, static_cast<double>(result_.rendezvous_attempts + 1));
  const ctrl::ResilienceMode mode = mode_ctl_->update(h);
  result_.final_mode = static_cast<int>(mode);
  if (h.divergence >= rs.degradation.divergence_threshold ||
      h.rho_rel_error >= rs.degradation.rho_rel_threshold) {
    result_.mismatch_detected = true;
  }

  if (mode == ctrl::ResilienceMode::kConservative) {
    divert_to(d);  // model untrustworthy or mission at risk: transmit now
    return;
  }
  if (mode != ctrl::ResilienceMode::kReEstimated) return;

  core::ReDecisionInput in;
  in.current_d_m = d;
  in.target_d_m = result_.d_final_m;
  in.min_distance_m = spec_.scenario.min_distance_m;
  in.speed_mps = spec_.scenario.speed_mps;
  in.mdata_bytes = result_.total_bytes;
  in.elapsed_s = sim_.now();
  in.divergence = h.divergence;
  in.rho_rel_error = h.rho_rel_error;
  in.channel = est;
  in.rho_hat = hazard_est_->rho();
  in.nominal_rho = spec_.scenario.rho_per_m;
  const core::ReDecision rd = redecide_->consider(in);
  if (rd.redecided) {
    result_.redecisions = redecide_->redecisions();
    chan_est_->rearm();  // the old window was explained by the old model
    divert_to(rd.target_d_m);
  }
}

void MissionTrial::divert_to(double new_target_d_m) {
  if (done_ || !approaching_) return;
  if (arrival_event_) pause_approach(sim_.now());  // fold live progress in
  const double cur_d =
      std::max(spec_.scenario.d0_m - distance_flown_m_, spec_.scenario.min_distance_m);
  const double target = std::clamp(new_target_d_m, spec_.scenario.min_distance_m, cur_d);
  result_.d_final_m = target;
  remaining_approach_m_ = std::max(cur_d - target, 0.0);
  if (remaining_approach_m_ <= 1e-9) {
    remaining_approach_m_ = 0.0;
    arrive();
  } else if (injector_.gps_up()) {
    resume_approach();
  }  // else: the next gps-up flip resumes toward the new target
}

void MissionTrial::resume_approach() {
  const double v = spec_.scenario.speed_mps;
  segment_start_t_ = sim_.now();
  arrival_event_ = sim_.schedule(remaining_approach_m_ / v, [this] {
    if (done_ || !approaching_) return;
    distance_flown_m_ += remaining_approach_m_;
    remaining_approach_m_ = 0.0;
    arrive();
  });
  // Crash mid-segment: the sampled failure distance falls inside it.
  const double to_crash = result_.crash_distance_m - distance_flown_m_;
  if (to_crash < remaining_approach_m_) {
    crash_event_ = sim_.schedule(std::max(to_crash, 0.0) / v, [this] {
      if (done_) return;
      crash();
    });
  }
}

void MissionTrial::pause_approach(double t_s) {
  const double v = spec_.scenario.speed_mps;
  const double covered = std::max(0.0, (t_s - segment_start_t_)) * v;
  distance_flown_m_ += std::min(covered, remaining_approach_m_);
  remaining_approach_m_ = std::max(0.0, remaining_approach_m_ - covered);
  if (arrival_event_) sim_.cancel(arrival_event_);
  if (crash_event_) sim_.cancel(crash_event_);
  arrival_event_ = crash_event_ = 0;
}

void MissionTrial::arrive() {
  approaching_ = false;
  result_.survived_approach = true;
  if (arrival_event_) sim_.cancel(arrival_event_);
  arrival_event_ = 0;

  // Post-approach loiter burns failure distance at cruise speed until the
  // mission ends; the remaining budget converts to one absolute deadline.
  if (spec_.loiter_burns_distance && std::isfinite(result_.crash_distance_m)) {
    const double budget_m = result_.crash_distance_m - distance_flown_m_;
    crash_event_ = sim_.schedule(budget_m / spec_.scenario.speed_mps, [this] {
      if (done_) return;
      crash();
    });
  }
  // A diverted mission transmits from d_final, not d_opt: re-measure the
  // link-simulated rate at the actual transmit position.
  if (spec_.use_link_simulator && result_.d_final_m != result_.d_opt_m) {
    measure_link_throughput(sim::derive_seed(plan_.seed, "resilience/meas"), result_.d_final_m);
  }
  negotiate();
}

void MissionTrial::negotiate() {
  ctrl::TransmitCommand cmd;
  cmd.uav_id = "scout0";
  cmd.peer_id = "collector";
  cmd.transmit_distance_m = result_.d_final_m;
  const double d = result_.d_final_m;
  control_.send_reliable(
      cmd, [d] { return d; },
      [this](const ctrl::ControlMessage&, double) {
        if (done_) return;
        // The control plane agreed, but the data-plane session setup
        // (attach/bearer establishment) may still fail under chaos.
        if (chaos_ && chaos_->draw_setup_failure()) {
          on_setup_failure();
          return;
        }
        if (chaos_) result_.incomplete_reason = mac::IncompleteReason::kNone;
        begin_transfer_attempt();
      },
      [this](int) {
        if (done_) return;
        result_.negotiation_failed = true;
        finalize(false);
      },
      spec_.negotiation);
}

void MissionTrial::begin_transfer_attempt() {
  transfer_.begin_attempt();
  ++result_.rendezvous_attempts;
  transferring_ = true;
  consecutive_stalls_ = 0;
  last_progress_ = transfer_.receiver().received_count();
  const int gen = ++stall_generation_;
  sim::schedule_periodic(sim_, spec_.stall_timeout_s, [this, gen] {
    if (done_ || !transferring_ || gen != stall_generation_) return false;
    on_stall_tick();
    return !done_ && transferring_ && gen == stall_generation_;
  });
  pump();
}

void MissionTrial::pump() {
  if (done_ || !transferring_) return;
  if (sim_.now() < data_busy_until_) return;  // one datagram in the air at a time
  if (transfer_.complete()) {
    finalize(true);
    return;
  }
  auto p = transfer_.sender().next_packet(sim_.now());
  if (!p) return;  // window full: wait for acks or the stall timer
  // Degradation epochs scale the rate the world actually delivers.
  const double scale = chaos_ ? chaos_->rate_scale(sim_.now()) : 1.0;
  const double s = throughput_bps() * scale;
  if (s <= 0.0) return;  // no usable rate at this distance; stall timer retreats
  const double airtime = static_cast<double>(p->payload_bytes) * 8.0 / s;
  data_busy_until_ = sim_.now() + airtime;
  const net::Packet sent = *p;
  sim_.schedule(airtime, [this, sent] {
    if (done_ || !transferring_) return;
    if (chaos_ && chaos_->blacked_out(sim_.now())) {
      // An injected blackout eats the packet just like a baseline
      // outage, but is accounted separately (the chaos-loss counter).
      ++result_.chaos_losses;
    } else if (injector_.link_up()) {
      if (auto ack = transfer_.receiver().on_packet(sent)) {
        // The tiny selective-ack rides the same link; an outage eats it.
        if (injector_.link_up()) transfer_.sender().on_ack(*ack);
      }
    }
    pump();
  });
}

void MissionTrial::on_stall_tick() {
  const std::uint32_t got = transfer_.receiver().received_count();
  if (got != last_progress_) {
    last_progress_ = got;
    consecutive_stalls_ = 0;
    return;
  }
  ++consecutive_stalls_;
  stalled_in_outage_ = !injector_.link_up() || (chaos_ && chaos_->blacked_out(sim_.now()));
  if (consecutive_stalls_ >= spec_.retreat_after_stalls) {
    retreat_and_backoff();
    return;
  }
  // Declare the in-flight window lost and push retransmissions.
  transfer_.sender().on_timeout();
  pump();
}

void MissionTrial::on_setup_failure() {
  ++result_.chaos_setup_failures;
  result_.incomplete_reason = mac::IncompleteReason::kSessionSetupFailed;
  const int attempt = static_cast<int>(result_.chaos_setup_failures) - 1;
  if (spec_.retreat_backoff.exhausted(attempt)) {
    finalize(false);
    return;
  }
  sim_.schedule(spec_.retreat_backoff.delay_s(attempt, backoff_rng_), [this] {
    if (done_) return;
    negotiate();
  });
}

void MissionTrial::retreat_and_backoff() {
  const int attempt = transfer_.attempts() - 1;
  const bool resilient = spec_.resilience.enabled;
  if (spec_.retreat_backoff.exhausted(attempt)) {
    // Backoff ladder spent. A resilient mission aborts-and-ships-closer
    // instead of giving up: less range, more rate.
    if (can_ship_closer()) {
      ship_closer();
      return;
    }
    result_.incomplete_reason = stalled_in_outage_ ? mac::IncompleteReason::kStarvedByOutage
                                                   : mac::IncompleteReason::kTimeLimit;
    finalize(false);
    return;
  }
  const double delay = spec_.retreat_backoff.delay_s(attempt, backoff_rng_);
  if (resilient) {
    const double s = throughput_bps();
    if (s <= 0.0 && can_ship_closer()) {
      ship_closer();  // dead rate at this distance: retrying is hopeless
      return;
    }
    const double left_bytes = std::max(transfer_.total_bytes() - transfer_.delivered_bytes(), 0.0);
    const double est_s =
        s > 0.0 ? left_bytes * 8.0 / s : std::numeric_limits<double>::infinity();
    if (!retry_budget_.allow(sim_.now(), delay, est_s)) {
      if (can_ship_closer()) {
        ship_closer();
        return;
      }
      result_.incomplete_reason = stalled_in_outage_ ? mac::IncompleteReason::kStarvedByOutage
                                                     : mac::IncompleteReason::kTimeLimit;
      finalize(false);
      return;
    }
    retry_budget_.consume();
  }
  result_.arq_retransmissions = transfer_.sender().retransmissions();
  transfer_.suspend();
  transferring_ = false;
  ++stall_generation_;
  data_busy_until_ = 0.0;
  sim_.schedule(delay, [this] {
    if (done_) return;
    negotiate();  // re-negotiate the rendezvous, then resume the transfer
  });
}

void MissionTrial::ship_closer() {
  result_.arq_retransmissions = transfer_.sender().retransmissions();
  transfer_.suspend();
  transferring_ = false;
  ++stall_generation_;
  data_busy_until_ = 0.0;
  ++result_.ship_closer_moves;
  const double floor = spec_.scenario.min_distance_m;
  const double new_d = std::max(
      floor, result_.d_final_m - spec_.resilience.ship_closer_fraction * (result_.d_final_m - floor));
  // Flying closer takes real time — and, while a loiter crash deadline is
  // pending, burns the same failure distance per second as loitering, so
  // the pending crash event stays correct.
  const double move_s = std::max(result_.d_final_m - new_d, 0.0) / spec_.scenario.speed_mps;
  sim_.schedule(move_s, [this, new_d] {
    if (done_) return;
    result_.d_final_m = new_d;
    if (spec_.use_link_simulator) {
      measure_link_throughput(sim::derive_seed(plan_.seed, "resilience/meas") +
                                  static_cast<std::uint64_t>(result_.ship_closer_moves),
                              new_d);
    }
    negotiate();
  });
}

void MissionTrial::crash() {
  injector_.record_crash(0);
  result_.crashed = true;
  finalize(false);
}

void MissionTrial::finalize(bool delivered) {
  if (done_) return;
  done_ = true;
  // No later event can change the result: end the event loop here.
  sim_.stop();
  if (transferring_) {
    result_.arq_retransmissions = transfer_.sender().retransmissions();
    transfer_.suspend();
    transferring_ = false;
  }
  result_.delivered_all = delivered;
  result_.delivered_bytes = transfer_.attempts() > 0 ? transfer_.delivered_bytes() : 0.0;
  if (delivered) result_.delivered_bytes = result_.total_bytes;
  result_.completion_time_s = sim_.now();
  result_.control_retries = control_.reliable_retries();
  if (mode_ctl_) result_.final_mode = static_cast<int>(mode_ctl_->mode());
  const double frac =
      result_.total_bytes > 0.0 ? result_.delivered_bytes / result_.total_bytes : 0.0;
  result_.delivered_utility = result_.completion_time_s > 0.0 ? frac / result_.completion_time_s : 0.0;
}

}  // namespace

TrialResult run_mission_trial(const TrialSpec& spec, std::uint64_t seed) {
  MissionTrial trial(spec, seed);
  return trial.run();
}

}  // namespace skyferry::fault
