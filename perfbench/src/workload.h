// What every workload hands back to main(): timings per pass, operation
// counts, check failures, the output digest, and the metrics it defines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct RunResult {
  int threads{1};
  int copies{1};  ///< program instances measured at once, one per CPU
  std::vector<double> setup_s;         ///< one sample per program set-up
  std::vector<double> untraced_rates;  ///< ops/s of each untraced pass or window
  std::vector<double> traced_rates;    ///< ops/s of each traced pass or window
  std::uint64_t ops{0};
  CheckLog checks;
  /// Digest of one pass's outputs; every pass (traced or not, any thread
  /// count) must reproduce it.
  std::string digest;
  /// Workload-specific end-to-end metrics (latency, delivered fraction,
  /// regret), printed by name but not part of the shared contract.
  std::vector<Metric> extra;
  /// Per-layer metrics this workload measures (traced run only).
  std::vector<Metric> layer;
};

/// Records a pass's digest: the first pass sets it, later passes must
/// match it or every operation of the pass counts as failed.
void expect_digest(RunResult& r, const std::string& digest, std::uint64_t pass_ops,
                   const char* what);

/// Alternates passes until the timed phases add up to `seconds`. Each
/// call of `pass(kind, index)` returns the wall seconds it timed; kinds
/// cycle through [0, kinds).
template <class Pass>
void pass_loop(double seconds, int kinds, Pass&& pass) {
  double timed = 0.0;
  for (int round = 0; timed < seconds; ++round) {
    for (int k = 0; k < kinds; ++k) timed += pass(k, static_cast<std::uint64_t>(round));
  }
}

/// How many copies of the program an untraced run measures at once.
///
/// The host this benchmark was sized on runs a core at about half speed
/// for seconds to minutes at a time while another tenant loads it, one
/// core at a time and with no steal time. A single copy can spend a whole
/// run on such a core. An untraced run therefore runs one one-thread copy
/// per CPU, each pinned to its own, and `ops_per_s` takes the fastest
/// pass (or window) of any copy: one copy is almost always undisturbed.
constexpr std::size_t kMaxCopies = 4;

/// The first kMaxCopies CPUs this process may run on, in ascending order
/// ({-1}, one unpinned copy, when the affinity mask is unknown).
[[nodiscard]] std::vector<int> copy_cpus();

/// Calls fn(i) for every i < cpus.size() at once, each call on its own
/// thread pinned to cpus[i] (-1: unpinned); returns when all have
/// returned and rethrows the first exception any of them threw.
void on_cpus(const std::vector<int>& cpus, const std::function<void(std::size_t)>& fn);

/// The untraced measurement: every round sets up one instance per copy
/// on this thread, one after the other (`setup(round)`), then runs a pass
/// on every copy at once, each on its own CPU (`run(instance, round)`),
/// and last hands each instance and its pass's result to
/// `finish(instance, result)` on this thread. Rounds repeat until their
/// timed phases add up to `seconds`. Returns the number of copies.
template <class Setup, class Run, class Finish>
int copy_rounds(double seconds, Setup&& setup, Run&& run, Finish&& finish) {
  const std::vector<int> cpus = copy_cpus();
  pass_loop(seconds, 1, [&](int, std::uint64_t round) {
    std::vector<decltype(setup(round))> instances;
    for (std::size_t i = 0; i < cpus.size(); ++i) instances.push_back(setup(round));
    std::vector<decltype(run(instances[0], round))> results(cpus.size());
    const double t0 = now_s();
    on_cpus(cpus, [&](std::size_t i) { results[i] = run(instances[i], round); });
    const double wall = now_s() - t0;
    for (std::size_t i = 0; i < cpus.size(); ++i) finish(instances[i], results[i]);
    return wall;
  });
  return static_cast<int>(cpus.size());
}

RunResult run_fleet_wifi(const Options& opt);
RunResult run_fleet_multilink_chaos(const Options& opt);
RunResult run_mc_campaign(const Options& opt);
RunResult run_decide_stream(const Options& opt);

/// Benchmark self-tests; returns the number of failed assertions.
int run_selftest();

}  // namespace perfbench
