#include "fault/injector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace skyferry::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, FaultPlan plan)
    : sim_(sim),
      plan_(plan),
      crash_rng_(sim::derive_seed(plan.seed, "fault/crash")),
      ctrl_rng_(sim::derive_seed(plan.seed, "fault/ctrl")),
      link_(plan.link_outage.rate_per_s, plan.link_outage.mean_duration_s,
            sim::derive_seed(plan.seed, "fault/link"), FaultKind::kLinkDown, FaultKind::kLinkUp),
      gps_(plan.gps_dropout.rate_per_s, plan.gps_dropout.mean_duration_s,
           sim::derive_seed(plan.seed, "fault/gps"), FaultKind::kGpsDown, FaultKind::kGpsUp) {}

void FaultInjector::start(double t_end_s) {
  t_end_ = t_end_s;
  if (plan_.link_outage.enabled()) arm(link_, sim_.now(), true);
  if (plan_.gps_dropout.enabled()) arm(gps_, sim_.now(), true);
}

void FaultInjector::arm(Renewal& r, double now, bool queue) {
  const double delay =
      r.up ? r.rng.exponential(r.rate_per_s) : r.rng.exponential(1.0 / r.mean_duration_s);
  r.next_t = std::numeric_limits<double>::infinity();
  r.event = 0;
  if (now + delay > t_end_) return;
  r.next_t = now + std::max(delay, 0.0);  // the time Simulator::schedule fires it at
  r.order = armed_++;
  if (!queue) return;
  r.event = sim_.schedule(delay, [this, &r] {
    const double t = sim_.now();
    flip(r, t);
    for (const auto& fn : r.observers) fn(r.up, t);
    arm(r, t, true);
  });
}

void FaultInjector::flip(Renewal& r, double t) {
  r.up = !r.up;
  log_.push_back({r.up ? r.up_kind : r.down_kind, t, -1});
}

void FaultInjector::play_out() {
  if (!std::isfinite(t_end_)) return;  // an endless process has no end state
  for (Renewal* r : {&link_, &gps_}) {
    if (r->event != 0) sim_.cancel(r->event);
    r->event = 0;
  }
  for (;;) {
    // Earliest armed flip first; equal times in arming order, as the
    // simulator's FIFO tie-break would run them.
    const bool gps_first = gps_.next_t < link_.next_t ||
                           (gps_.next_t == link_.next_t && gps_.order < link_.order);
    Renewal& r = gps_first ? gps_ : link_;
    if (r.next_t == std::numeric_limits<double>::infinity()) return;
    const double t = r.next_t;
    flip(r, t);
    arm(r, t, false);
  }
}

double FaultInjector::sample_crash_distance(int uav_index) {
  if (!plan_.crash.enabled) return std::numeric_limits<double>::infinity();
  // An independent stream per UAV: adding a scout never shifts the draws
  // of the others.
  sim::Rng per_uav(sim::derive_seed(plan_.seed, "fault/crash/" + std::to_string(uav_index)));
  return plan_.crash.model().sample_failure_distance(per_uav);
}

void FaultInjector::record_crash(int uav_index) {
  log_.push_back({FaultKind::kUavCrash, sim_.now(), uav_index});
}

bool FaultInjector::drop_control_message() {
  if (ctrl_rng_.bernoulli(plan_.control_loss.loss_probability)) {
    log_.push_back({FaultKind::kControlLoss, sim_.now(), -1});
    return true;
  }
  return false;
}

}  // namespace skyferry::fault
