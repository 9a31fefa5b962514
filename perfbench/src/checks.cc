#include "checks.h"

#include <cmath>
#include <sstream>

#include "trace.h"

namespace perfbench {

using namespace skyferry;

void CheckLog::fail(std::uint64_t ops, const std::string& msg) {
  failed += ops;
  if (messages.size() < 8) messages.push_back(msg);
}

void CheckLog::absorb(const CheckLog& other) {
  failed += other.failed;
  for (const std::string& m : other.messages)
    if (messages.size() < 8) messages.push_back(m);
}

std::uint64_t check_fleet(const std::vector<fleet::MissionSpec>& specs,
                          const std::vector<fleet::MissionStatus>& status,
                          const fleet::FleetTotals& totals, const FleetCheckSpec& spec,
                          CheckLog& log) {
  const std::uint64_t n = status.size();
  if (totals.missions != n || specs.size() != n ||
      totals.ferrying + totals.transmitting + totals.completed + totals.failed != n) {
    log.fail(n, "fleet: phase totals do not sum to the mission count");
    return n;
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const fleet::MissionStatus& s = status[i];
    const double d0 = geo::distance(specs[i].start_pos, specs[i].receiver_pos);
    const char* why = nullptr;
    if (s.bytes_delivered > s.bytes_total) {
      why = "bytes_delivered > bytes_total";
    } else if (s.bytes_by_deadline > s.bytes_delivered) {
      why = "bytes_by_deadline > bytes_delivered";
    } else if (s.phase == fleet::Phase::kDone && s.bytes_delivered != s.bytes_total) {
      why = "done but not fully delivered";
    } else if (!(s.d_star_m >= spec.d_min_m && s.d_star_m <= d0)) {
      why = "d* outside [d_min, d0]";
    } else if (s.arrived_t_s > 0.0 && s.arrived_t_s < s.spawn_t_s) {
      why = "arrived before spawn";
    } else if (s.completed_t_s > 0.0 && s.completed_t_s < s.arrived_t_s) {
      why = "completed before arrival";
    } else if (spec.n_links == 0 ? s.burst_link != -1
                                 : (s.burst_link < 0 || s.burst_link >= spec.n_links)) {
      why = "burst_link out of range";
    } else if (s.reelections < 0 || s.reelections > spec.max_reelections) {
      why = "reelections above the cap";
    } else if (spec.expect_table && s.backend != policy::Backend::kTable) {
      why = "decision did not come from the installed table";
    }
    if (why != nullptr) {
      ++bad;
      log.fail(1, "fleet: mission " + std::to_string(i) + ": " + why);
    }
  }
  return bad;
}

std::uint64_t check_mc(const fault::MonteCarloSummary& s, CheckLog& log) {
  const auto n = static_cast<std::uint64_t>(s.trials);
  if (s.quarantined != 0 || s.completed_trials != s.trials) {
    const auto q = static_cast<std::uint64_t>(s.trials - s.completed_trials);
    log.fail(q > 0 ? q : 1, "mc: " + std::to_string(s.quarantined) + " quarantined trials");
    return q > 0 ? q : 1;
  }
  // delta(d) is the probability of surviving the approach; with n
  // independent trials the empirical rate is binomial around it.
  const double p = s.analytic_approach_survival;
  const double sigma = std::sqrt(p * (1.0 - p) / static_cast<double>(n));
  const double band = 5.0 * sigma + 1.0 / static_cast<double>(n);
  if (!(std::abs(s.empirical_approach_survival - p) <= band)) {
    std::ostringstream m;
    m << "mc: empirical approach survival " << s.empirical_approach_survival
      << " outside analytic " << p << " +- " << band;
    log.fail(n, m.str());
    return n;
  }
  return 0;
}

std::uint64_t check_replies(std::string_view reply, std::string_view expected,
                            std::size_t queries, CheckLog& log) {
  if (reply == expected) return 0;
  std::uint64_t bad = 0;
  std::size_t a = 0, b = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::size_t ea = reply.find('\n', a);
    const std::size_t eb = expected.find('\n', b);
    const std::string_view got = ea == std::string_view::npos ? std::string_view{}
                                                              : reply.substr(a, ea - a);
    const std::string_view want = eb == std::string_view::npos ? std::string_view{}
                                                               : expected.substr(b, eb - b);
    if (got.substr(0, 3) != "ok " || got != want) {
      ++bad;
      log.fail(1, "decide: query " + std::to_string(q) + " answered '" + std::string(got) +
                      "', expected '" + std::string(want) + "'");
    }
    a = ea == std::string_view::npos ? reply.size() : ea + 1;
    b = eb == std::string_view::npos ? expected.size() : eb + 1;
  }
  if (bad == 0) {
    // Same answers but extra output (an err line, a trailing reply).
    log.fail(queries, "decide: reply holds lines beyond the batch's answers");
    return queries;
  }
  return bad;
}

void guard_table_model(const policy::PolicyTable& table, const core::PaperLogThroughput& fit) {
  const policy::TableModelSpec& m = table.model();
  const core::PaperLogThroughput compiled(m.a, m.b, m.name, m.scale, m.min_distance_m);
  bool same = m.a == fit.a() && m.b == fit.b();
  // scale and min_distance are not exposed by the fit; rate equality at
  // probe distances on both sides of the floor pins them.
  for (const double d : {1.0, 0.5 * m.min_distance_m, m.min_distance_m, 50.0, 100.0, 300.0})
    same = same && compiled.throughput_bps(d) == fit.throughput_bps(d);
  if (!same) {
    std::ostringstream msg;
    msg << "policy table compiled for '" << m.name << "' (a=" << m.a << ", b=" << m.b
        << ", scale=" << m.scale << ", min_d=" << m.min_distance_m
        << ") but the decision service answers with '" << fit.name() << "' (a=" << fit.a()
        << ", b=" << fit.b() << ")";
    throw SetupError(msg.str());
  }
}

std::string digest_fleet(const std::vector<fleet::MissionStatus>& status,
                         const fleet::FleetTotals& totals) {
  Digest d;
  for (const fleet::MissionStatus& s : status) {
    d.u64(static_cast<std::uint64_t>(s.phase));
    d.f64(s.d_star_m);
    d.f64(s.utility);
    d.u64(static_cast<std::uint64_t>(s.backend));
    d.u64(s.bytes_total);
    d.u64(s.bytes_delivered);
    d.u64(s.bytes_by_deadline);
    d.u64(s.mpdus_attempted);
    d.u64(s.mpdus_delivered);
    d.f64(s.spawn_t_s);
    d.f64(s.arrived_t_s);
    d.f64(s.completed_t_s);
    d.u64(static_cast<std::uint64_t>(s.burst_link));
    d.u64(s.trickle_bytes);
    d.u64(static_cast<std::uint64_t>(s.reelections));
    d.u64(static_cast<std::uint64_t>(s.stall_reason));
  }
  d.f64(totals.deadline_weighted_utility);
  d.f64(totals.mean_completion_s);
  d.u64(totals.bytes_delivered);
  return d.hex();
}

std::string digest_mc(const fault::MonteCarloSummary& s) {
  Digest d;
  d.u64(static_cast<std::uint64_t>(s.trials));
  for (const double v :
       {s.empirical_delivery_probability, s.empirical_approach_survival,
        s.analytic_approach_survival, s.planner_delivery_probability, s.mean_delivered_fraction,
        s.completion_p50_s, s.completion_p90_s, s.completion_p99_s, s.mean_rendezvous_attempts,
        s.mean_control_retries, s.mean_arq_retransmissions, s.mean_delivered_utility,
        s.mean_redecisions, s.mean_ship_closer_moves, s.mismatch_detected_fraction,
        s.conservative_mode_fraction})
    d.f64(v);
  for (const int v : {s.crashes, s.negotiation_failures, s.timeouts, s.completed_trials})
    d.u64(static_cast<std::uint64_t>(v));
  return d.hex();
}

}  // namespace perfbench
