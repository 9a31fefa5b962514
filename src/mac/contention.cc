#include "mac/contention.h"

#include <algorithm>
#include <cmath>

namespace skyferry::mac {
namespace {

/// Bianchi (2000): tau as a function of p for CWmin W and m backoff stages.
/// The expression is 0/0 at p = 1/2; the removable singularity is filled
/// with its L'Hopital limit tau = 4 / (2(w+1) + w*m).
double tau_of_p(double p, int w, int m) noexcept {
  if (std::abs(1.0 - 2.0 * p) < 1e-6) {
    return 4.0 / (2.0 * (w + 1.0) + static_cast<double>(w) * m);
  }
  const double num = 2.0 * (1.0 - 2.0 * p);
  const double den =
      (1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - std::pow(2.0 * p, m));
  return num / den;
}

}  // namespace

ContentionResult analyze_contention(int stations, const MacTiming& timing,
                                    double frame_airtime_s, double ack_airtime_s) noexcept {
  ContentionResult r;
  r.stations = std::max(stations, 1);
  const int n = r.stations;
  const int w = timing.cw_min + 1;
  // Number of doubling stages until cw_max.
  int m = 0;
  while ((w << m) - 1 < timing.cw_max) ++m;

  if (n == 1) {
    r.tau = 2.0 / (w + 1.0);
    r.collision_probability = 0.0;
    r.efficiency_vs_single = 1.0;
    return r;
  }

  // Fixed point: p = 1 - (1 - tau)^(n-1). The damped iteration reaches
  // exact (bit-level) stationarity well before 200 rounds for every n;
  // the early exit keeps the result identical to the full loop while
  // making the fleet engine's per-cell memo misses cheap.
  double p = 0.1;
  for (int it = 0; it < 200; ++it) {
    const double tau = tau_of_p(p, w, m);
    const double p_next = 0.5 * p + 0.5 * (1.0 - std::pow(1.0 - tau, n - 1));
    if (p_next == p) break;
    p = p_next;
  }
  r.tau = tau_of_p(p, w, m);
  r.collision_probability = p;

  // Normalized throughput (slot-time accounting).
  auto throughput = [&](int n_stations, double tau) {
    const double p_tr = 1.0 - std::pow(1.0 - tau, n_stations);
    const double p_s = n_stations * tau * std::pow(1.0 - tau, n_stations - 1) /
                       std::max(p_tr, 1e-12);
    const double t_s = frame_airtime_s + timing.sifs_s + ack_airtime_s + timing.difs_s();
    const double t_c = frame_airtime_s + timing.difs_s();
    const double denom = (1.0 - p_tr) * timing.slot_s + p_tr * p_s * t_s +
                         p_tr * (1.0 - p_s) * t_c;
    return p_tr * p_s * frame_airtime_s / denom;
  };
  const double single = throughput(1, 2.0 / (w + 1.0));
  const double shared_total = throughput(n, r.tau);
  // Per-station share relative to the lone station's throughput.
  r.efficiency_vs_single = (single > 0.0) ? (shared_total / n) / single : 0.0;
  return r;
}

}  // namespace skyferry::mac
