// Event-driven fault injector on top of sim::Simulator. Owns the fault
// randomness (one derived Rng stream per fault class, so enabling one
// class never perturbs another's draws), maintains the current link/GPS
// up-down state, and logs every injected event for post-trial forensics.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "fault/fault_plan.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace skyferry::fault {

enum class FaultKind : std::uint8_t {
  kUavCrash,
  kLinkDown,
  kLinkUp,
  kControlLoss,
  kGpsDown,
  kGpsUp,
};

struct FaultEvent {
  FaultKind kind;
  double t_s{0.0};
  int uav{-1};  ///< crash events only; -1 for link/control/GPS faults
};

class FaultInjector {
 public:
  using StateChangeFn = std::function<void(bool up, double t_s)>;

  FaultInjector(sim::Simulator& sim, FaultPlan plan);

  /// Arm the link-outage and GPS-dropout renewal processes until
  /// `t_end_s`. Call once per trial, before sim.run().
  void start(double t_end_s);

  /// Finish both renewal processes up to start()'s `t_end_s` without the
  /// event queue, for a run that has stopped early (Simulator::stop())
  /// because nothing it still has pending can change its result. The
  /// pending flip events are cancelled and the rest of each process is
  /// drawn from the same stream with the same arithmetic, so log(),
  /// link_up() and gps_up() end exactly as if the simulator had executed
  /// every flip up to `t_end_s`. Observers are not notified.
  void play_out();

  /// Distance-to-failure for UAV `uav_index`, drawn once per trial from
  /// an independent stream (+inf when crashes are disabled). Record the
  /// corresponding crash via `record_crash` when the simulation decides
  /// the distance was actually exceeded.
  [[nodiscard]] double sample_crash_distance(int uav_index);
  void record_crash(int uav_index);

  /// One Bernoulli draw per control message.
  [[nodiscard]] bool drop_control_message();

  [[nodiscard]] bool link_up() const noexcept { return link_.up; }
  [[nodiscard]] bool gps_up() const noexcept { return gps_.up; }

  /// Observers fire on every link/GPS state flip (after the state updates).
  void on_link_change(StateChangeFn fn) { link_.observers.push_back(std::move(fn)); }
  void on_gps_change(StateChangeFn fn) { gps_.observers.push_back(std::move(fn)); }

  [[nodiscard]] const std::vector<FaultEvent>& log() const noexcept { return log_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  /// One up/down renewal process (link outage or GPS dropout): while up
  /// the next drop arrives after Exp(rate), while down the fade ends
  /// after Exp(1/mean_duration).
  struct Renewal {
    Renewal(double rate, double mean_duration, std::uint64_t seed, FaultKind down, FaultKind up)
        : rate_per_s(rate), mean_duration_s(mean_duration), rng(seed), down_kind(down), up_kind(up) {}

    double rate_per_s;
    double mean_duration_s;
    sim::Rng rng;
    FaultKind down_kind;
    FaultKind up_kind;
    bool up{true};
    std::vector<StateChangeFn> observers;
    /// The armed flip: its time (+inf when none), its arming order among
    /// this injector's flips (the simulator's FIFO tie-break) and its id.
    double next_t{std::numeric_limits<double>::infinity()};
    std::uint64_t order{0};
    sim::EventId event{0};
  };

  /// Draw `r`'s next flip from time `now` and arm it if it is due by
  /// t_end_; with `queue`, also schedule it on the simulator.
  void arm(Renewal& r, double now, bool queue);
  /// Apply `r`'s armed flip at time `t`.
  void flip(Renewal& r, double t);

  sim::Simulator& sim_;
  FaultPlan plan_;
  sim::Rng crash_rng_;
  sim::Rng ctrl_rng_;
  Renewal link_;
  Renewal gps_;
  double t_end_{0.0};
  std::uint64_t armed_{0};
  std::vector<FaultEvent> log_;
};

}  // namespace skyferry::fault
