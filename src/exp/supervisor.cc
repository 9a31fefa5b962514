#include "exp/supervisor.h"

#include <csignal>
#include <cstdio>
#include <sys/stat.h>

#include "stats/quantile.h"

namespace skyferry::exp {
namespace {

// One process-wide flag: async-signal-safe, polled by every supervised
// campaign between chunk completions.
std::atomic<int> g_interrupt_signal{0};

#ifndef _WIN32
void on_interrupt(int signal) noexcept {
  g_interrupt_signal.store(signal, std::memory_order_relaxed);
}

// Nesting bookkeeping for ScopedInterruptHandlers (main thread only).
int g_handler_depth = 0;
struct sigaction g_prev_int;
struct sigaction g_prev_term;
#endif

}  // namespace

RunStats make_run_stats(const RunnerConfig& cfg, const std::vector<Point>& points,
                        const std::vector<std::vector<double>>& latency_ms, int workers,
                        int chunk, double wall_s) {
  RunStats st;
  st.threads = workers;
  st.points = points.size();
  st.trials_per_point = cfg.trials;
  st.seed = cfg.seed;
  st.chunk = chunk;
  st.wall_s = wall_s;
  double total_ms = 0.0;
  for (const auto& row : latency_ms)
    for (double ms : row) total_ms += ms;
  st.total_trial_s = total_ms / 1e3;
  const double total_trials = static_cast<double>(points.size()) * cfg.trials;
  st.trials_per_s = wall_s > 0.0 ? total_trials / wall_s : 0.0;
  st.occupancy = (wall_s > 0.0 && workers > 0) ? st.total_trial_s / (wall_s * workers) : 0.0;
  st.speedup_vs_serial = wall_s > 0.0 ? st.total_trial_s / wall_s : 0.0;
  st.per_point.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    auto sorted = latency_ms[p];
    std::sort(sorted.begin(), sorted.end());
    PointStats ps;
    ps.point_index = points[p].index;
    ps.label = points[p].label();
    ps.trials = cfg.trials;
    if (!sorted.empty()) {
      ps.p50_ms = stats::quantile_sorted(sorted, 0.50);
      ps.p99_ms = stats::quantile_sorted(sorted, 0.99);
    }
    st.per_point.push_back(std::move(ps));
  }
  return st;
}

bool interrupt_requested() noexcept {
  return g_interrupt_signal.load(std::memory_order_relaxed) != 0;
}

int interrupt_signal() noexcept {
  return g_interrupt_signal.load(std::memory_order_relaxed);
}

void request_interrupt(int signal) noexcept {
  g_interrupt_signal.store(signal, std::memory_order_relaxed);
}

void clear_interrupt() noexcept { g_interrupt_signal.store(0, std::memory_order_relaxed); }

ScopedInterruptHandlers::ScopedInterruptHandlers() {
#ifndef _WIN32
  if (g_handler_depth++ == 0) {
    struct sigaction sa = {};
    sa.sa_handler = on_interrupt;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: let blocking calls wake up
    sigaction(SIGINT, &sa, &g_prev_int);
    sigaction(SIGTERM, &sa, &g_prev_term);
  }
#endif
}

ScopedInterruptHandlers::~ScopedInterruptHandlers() {
#ifndef _WIN32
  if (--g_handler_depth == 0) {
    sigaction(SIGINT, &g_prev_int, nullptr);
    sigaction(SIGTERM, &g_prev_term, nullptr);
  }
#endif
}

void CampaignReport::fold_into(RunStats& st) const {
  st.failed_trials += static_cast<int>(failures.size());
  st.crashed += crashed;
  st.timed_out += timed_out;
  st.quarantined += quarantined;
  st.retried += retried;
  st.failures.insert(st.failures.end(), failures.begin(), failures.end());
}

std::string CampaignReport::summary_line() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# campaign: %zu failed of %d (crashed %d, timed-out %d, quarantined %d), "
                "%d retries",
                failures.size(), scheduled, crashed, timed_out, quarantined, retried);
  std::string line = buf;
  if (resumed_chunks > 0) line += "; resumed " + std::to_string(resumed_chunks) + " chunks";
  if (interrupted) line += "; INTERRUPTED (checkpoint flushed, rerun with --resume)";
  return line;
}

bool CampaignReport::is_quarantined(std::size_t point, int trial) const noexcept {
  for (const auto& f : failures)
    if (f.quarantined && f.point == point && f.trial == trial) return true;
  return false;
}

bool SupervisedRunner::checkpoint_exists(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0;
}

void SupervisedRunner::finalize_report(CampaignReport& report, bool interrupted) {
  auto& fs = report.failures;
  std::sort(fs.begin(), fs.end(), [](const TrialFailure& a, const TrialFailure& b) {
    return a.point != b.point ? a.point < b.point : a.trial < b.trial;
  });
  report.crashed = 0;
  report.timed_out = 0;
  report.quarantined = 0;
  report.retried = 0;
  for (const auto& f : fs) {
    if (f.kind == TrialFailure::Kind::kCrashed) ++report.crashed;
    if (f.kind == TrialFailure::Kind::kTimedOut) ++report.timed_out;
    if (f.quarantined) ++report.quarantined;
    report.retried += f.attempts - 1;
  }
  report.completed = report.scheduled - report.quarantined;
  report.interrupted = interrupted;
}

}  // namespace skyferry::exp
