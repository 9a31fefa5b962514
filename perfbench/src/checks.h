// Output checks and digests. Every check counts the operations whose
// output it rejects; a pass-level violation (totals that do not add up,
// a survival estimate outside its confidence band) rejects every
// operation of the pass. Simulated crashes and deadline misses are
// correct outputs and never count here.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/throughput_model.h"
#include "fault/monte_carlo.h"
#include "fleet/engine.h"
#include "policy/table.h"

namespace perfbench {

struct CheckLog {
  std::uint64_t failed{0};
  std::vector<std::string> messages;  ///< the first few, for the report

  void fail(std::uint64_t ops, const std::string& msg);
  /// Adds another log's failures (a copy run on another thread).
  void absorb(const CheckLog& other);
};

struct FleetCheckSpec {
  double d_min_m{20.0};
  int max_reelections{0};
  /// LinkSet size; 0 on the legacy single-802.11n path (burst_link -1).
  int n_links{0};
  /// Every decision must come from the installed policy table.
  bool expect_table{false};
};

/// Mission invariants: delivered <= total, by-deadline <= delivered,
/// kDone => fully delivered, d* in [d_min, d0], spawn <= arrived <=
/// completed, burst_link in range, reelections <= cap; plus phase totals
/// summing to the mission count. Returns the operations rejected.
std::uint64_t check_fleet(const std::vector<skyferry::fleet::MissionSpec>& specs,
                          const std::vector<skyferry::fleet::MissionStatus>& status,
                          const skyferry::fleet::FleetTotals& totals, const FleetCheckSpec& spec,
                          CheckLog& log);

/// Zero quarantined trials, and the empirical approach survival inside
/// a 5-sigma binomial band around the analytic delta(d).
std::uint64_t check_mc(const skyferry::fault::MonteCarloSummary& s, CheckLog& log);

/// One `ok` reply per query, in order, equal to the expected line.
/// Returns the queries whose reply is missing, malformed or different.
std::uint64_t check_replies(std::string_view reply, std::string_view expected,
                            std::size_t queries, CheckLog& log);

/// Thrown when the program is set up inconsistently (a policy table
/// compiled for another throughput fit).
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Refuses a table whose TableModelSpec (a, b, scale, min_distance)
/// differs from the throughput fit the DecisionService answers with.
/// DecisionService::table_eligible does not compare the two, so a
/// mismatched table would otherwise be served silently.
void guard_table_model(const skyferry::policy::PolicyTable& table,
                       const skyferry::core::PaperLogThroughput& fit);

[[nodiscard]] std::string digest_fleet(const std::vector<skyferry::fleet::MissionStatus>& status,
                                       const skyferry::fleet::FleetTotals& totals);
[[nodiscard]] std::string digest_mc(const skyferry::fault::MonteCarloSummary& s);

}  // namespace perfbench
