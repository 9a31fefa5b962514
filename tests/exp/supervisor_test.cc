// Supervised-campaign behavior: crash capture with bounded retries and
// quarantine, the cooperative soft-deadline watchdog, fail-fast, the
// interrupt flag, and checkpoint/resume merging to a bit-identical grid
// for any thread count.
#include "exp/supervisor.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace skyferry::exp {
namespace {

double mini_trial(const Point& p, std::uint64_t seed) {
  sim::Rng rng(seed);
  double acc = p.has("offset") ? p.at("offset") : 0.0;
  for (int i = 0; i < 200; ++i) acc += rng.uniform();
  return acc;
}

RunnerConfig base_cfg(int threads, int trials = 64, std::uint64_t seed = 909) {
  RunnerConfig cfg;
  cfg.threads = threads;
  cfg.trials = trials;
  cfg.seed = seed;
  return cfg;
}

/// The engine's contract with no pool, no chunking and no supervision:
/// results[p][t] = fn(point p, sim::fork(seed, point index, t)).
template <class Fn>
auto serial_reference(const std::vector<Point>& points, const RunnerConfig& cfg, Fn fn) {
  std::vector<std::vector<decltype(fn(points[0], std::uint64_t{0}))>> out(points.size());
  for (std::size_t p = 0; p < points.size(); ++p)
    for (int t = 0; t < cfg.trials; ++t)
      out[p].push_back(fn(points[p], sim::fork(cfg.seed, points[p].index,
                                               static_cast<std::uint64_t>(t))));
  return out;
}

class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
  }
  ~TempCheckpoint() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SupervisedRunner, MatchesPlainRunnerOnCleanTrials) {
  // The plain runner is serial_reference: the grid must match it bit for
  // bit for any thread count and chunk size, since every trial lands in
  // its pre-assigned slot with its forked seed.
  const auto points = Sweep{}.axis("offset", {0.0, 10.0, 20.0}).cartesian();
  const auto reference = serial_reference(points, base_cfg(1), mini_trial);
  for (const int threads : {1, 2, 8}) {
    for (const int chunk : {0, 1, 7}) {
      RunnerConfig cfg = base_cfg(threads);
      cfg.chunk = chunk;
      const auto out = SupervisedRunner(cfg).run(points, mini_trial);
      EXPECT_EQ(out.results, reference) << "threads " << threads << " chunk " << chunk;
      EXPECT_EQ(out.report.failures.size(), 0u);
      EXPECT_EQ(out.report.quarantined, 0);
      EXPECT_EQ(out.report.completed, out.report.scheduled);
      EXPECT_FALSE(out.interrupted);
    }
  }
}

TEST(SupervisedRunner, StatsAreFilledIn) {
  const auto points = Sweep{}.axis("offset", {0.0, 10.0, 20.0}).cartesian();
  for (const int threads : {1, 2, 8}) {
    const auto out = SupervisedRunner(base_cfg(threads)).run(points, mini_trial);
    const RunStats& st = out.stats;
    EXPECT_EQ(st.threads, threads);
    EXPECT_EQ(st.points, 3u);
    EXPECT_EQ(st.trials_per_point, 64);
    EXPECT_EQ(st.seed, 909u);
    EXPECT_GT(st.wall_s, 0.0);
    EXPECT_GT(st.trials_per_s, 0.0);
    EXPECT_GE(st.occupancy, 0.0);
    ASSERT_EQ(st.per_point.size(), 3u);
    EXPECT_EQ(st.per_point[1].label, "offset=10");
    EXPECT_GE(st.per_point[0].p99_ms, st.per_point[0].p50_ms);
    const std::string json = st.to_json();
    EXPECT_NE(json.find("\"threads\": " + std::to_string(threads)), std::string::npos);
    EXPECT_NE(json.find("\"wall_s\""), std::string::npos);
    EXPECT_NE(json.find("\"speedup_vs_serial\""), std::string::npos);
    EXPECT_NE(json.find("\"per_point\""), std::string::npos);
  }
}

TEST(SupervisedRunner, TrialSeedsDependOnPointAndTrialIndex) {
  // All distinct, each equal to sim::fork(seed, point, trial).
  const auto seeds = SupervisedRunner(base_cfg(2, 8, 7))
                         .run(Sweep{}.axis("x", {1.0, 2.0}).cartesian(),
                              [](const Point&, std::uint64_t seed) { return seed; });
  std::set<std::uint64_t> distinct;
  for (std::size_t p = 0; p < 2; ++p)
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_EQ(seeds.results[p][t], sim::fork(7, p, t));
      distinct.insert(seeds.results[p][t]);
    }
  EXPECT_EQ(distinct.size(), 16u);
}

TEST(SupervisedRunner, RunTrialsIsSinglePointSugar) {
  const auto sugar = SupervisedRunner(base_cfg(2, 10, 5)).run_trials(
      [](const Point& p, std::uint64_t seed) { return static_cast<double>(seed + p.index); });
  ASSERT_EQ(sugar.results.size(), 1u);
  ASSERT_EQ(sugar.results[0].size(), 10u);
  for (std::size_t t = 0; t < 10; ++t)
    EXPECT_DOUBLE_EQ(sugar.results[0][t], static_cast<double>(sim::fork(5, 0, t)));
  EXPECT_EQ(sugar.stats.points, 1u);
  EXPECT_EQ(sugar.report.scheduled, 10);
}

TEST(SupervisedRunner, QuarantinesExactlyThePoisonedSeeds) {
  // Deterministic poison: ~6% of forked seeds always throw, so retries
  // never save them. The campaign must complete, quarantine exactly those
  // trials, and keep every other slot bit-identical to a clean run —
  // with no retries (record and move on) and with two.
  const auto points = Sweep{}.axis("offset", {0.0, 10.0}).cartesian();
  const auto poisoned = [](const Point& p, std::uint64_t seed) -> double {
    if (seed % 16 == 0) throw std::invalid_argument("poisoned seed");
    return mini_trial(p, seed);
  };
  const auto clean = serial_reference(points, base_cfg(1), mini_trial);
  for (const int retries : {0, 2}) {
    SupervisorOptions so;
    so.max_retries = retries;
    so.replay_prefix = "supervisor_test --replay";
    const auto out = SupervisedRunner(base_cfg(8), so).run(points, poisoned);
    int poisoned_count = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (int t = 0; t < 64; ++t) {
        const bool bad = sim::fork(909, p, static_cast<std::uint64_t>(t)) % 16 == 0;
        poisoned_count += bad ? 1 : 0;
        EXPECT_EQ(out.report.is_quarantined(p, t), bad) << "point " << p << " trial " << t;
        if (bad) {
          EXPECT_EQ(out.results[p][static_cast<std::size_t>(t)], 0.0);
        } else {
          EXPECT_EQ(out.results[p][static_cast<std::size_t>(t)],
                    clean[p][static_cast<std::size_t>(t)]);
        }
      }
    }
    ASSERT_GT(poisoned_count, 0);
    EXPECT_EQ(out.report.quarantined, poisoned_count);
    EXPECT_EQ(out.report.crashed, poisoned_count);
    EXPECT_EQ(out.report.completed, out.report.scheduled - poisoned_count);
    // Every attempt was made: 1 + max_retries, and each record carries a
    // replay command ending in the forked seed. Records are sorted by
    // (point, trial).
    for (std::size_t i = 0; i < out.report.failures.size(); ++i) {
      const auto& f = out.report.failures[i];
      EXPECT_EQ(f.attempts, retries + 1);
      EXPECT_TRUE(f.quarantined);
      EXPECT_EQ(f.type, "std::invalid_argument");
      EXPECT_EQ(f.what, "poisoned seed");
      EXPECT_EQ(f.replay_cmd, "supervisor_test --replay " + std::to_string(f.seed));
      if (i > 0) {
        const auto& prev = out.report.failures[i - 1];
        EXPECT_TRUE(prev.point < f.point || (prev.point == f.point && prev.trial < f.trial));
      }
    }
    // Taxonomy is folded into the stats sidecar too.
    EXPECT_EQ(out.stats.failed_trials, poisoned_count);
    EXPECT_EQ(out.stats.quarantined, poisoned_count);
    EXPECT_EQ(out.stats.retried, poisoned_count * retries);
    EXPECT_NE(out.stats.summary_line().find("failed"), std::string::npos);
    EXPECT_NE(out.stats.to_json().find("\"failures\""), std::string::npos);
  }
}

TEST(SupervisedRunner, RetryRescuesFlakyTrials) {
  // Fails on first attempt for every 8th seed, succeeds on the second:
  // with one retry nothing is quarantined and the grid is complete.
  std::atomic<int> first_attempts{0};
  struct Seen {
    std::atomic<bool> failed_once[64] = {};
  };
  Seen seen;
  const auto flaky = [&](const Point&, std::uint64_t seed) -> double {
    const auto t = static_cast<std::size_t>(seed % 64);
    if (seed % 8 == 0 && !seen.failed_once[t].exchange(true)) {
      first_attempts.fetch_add(1);
      throw std::runtime_error("transient");
    }
    return static_cast<double>(seed);
  };
  SupervisorOptions so;
  so.max_retries = 1;
  const auto out = SupervisedRunner(base_cfg(4), so).run(Sweep{}.cartesian(), flaky);
  EXPECT_EQ(out.report.quarantined, 0);
  EXPECT_GT(first_attempts.load(), 0);
  EXPECT_EQ(out.report.retried, first_attempts.load());
  EXPECT_EQ(static_cast<int>(out.report.failures.size()), first_attempts.load());
  for (const auto& f : out.report.failures) {
    EXPECT_FALSE(f.quarantined);  // rescued: result kept, crash recorded
    EXPECT_EQ(f.attempts, 2);
  }
  for (int t = 0; t < 64; ++t)
    EXPECT_EQ(out.results[0][static_cast<std::size_t>(t)],
              static_cast<double>(sim::fork(909, 0, static_cast<std::uint64_t>(t))));
}

TEST(SupervisedRunner, WatchdogCancelsCooperativeHangs) {
  // One specific trial hangs until cancelled; the watchdog must flag it,
  // the trial observes its token, and the campaign completes with exactly
  // that trial quarantined as timed-out — no deadlock.
  const std::uint64_t hung_seed = sim::fork(909, 0, 13);
  const auto hangs = [&](const Point&, std::uint64_t seed, const CancelToken& token) -> double {
    if (seed == hung_seed) {
      while (true) {
        poll_cancel(token);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return static_cast<double>(seed % 100);
  };
  SupervisorOptions so;
  so.trial_timeout_ms = 50.0;
  so.max_retries = 3;  // must NOT be applied to a hang
  const auto out = SupervisedRunner(base_cfg(4, 32), so).run(Sweep{}.cartesian(), hangs);
  EXPECT_EQ(out.report.quarantined, 1);
  EXPECT_EQ(out.report.timed_out, 1);
  EXPECT_EQ(out.report.crashed, 0);
  ASSERT_EQ(out.report.failures.size(), 1u);
  const TrialFailure& f = out.report.failures[0];
  EXPECT_EQ(f.trial, 13);
  EXPECT_EQ(f.seed, hung_seed);
  EXPECT_EQ(f.kind, TrialFailure::Kind::kTimedOut);
  EXPECT_EQ(f.attempts, 1);  // hangs are not retried
  EXPECT_TRUE(f.quarantined);
  // All other trials kept their results.
  for (int t = 0; t < 32; ++t) {
    if (t != 13) {
      EXPECT_EQ(out.results[0][static_cast<std::size_t>(t)],
                static_cast<double>(sim::fork(909, 0, static_cast<std::uint64_t>(t)) % 100));
    }
  }
}

TEST(SupervisedRunner, SlowButFinishingTrialIsFlaggedNotQuarantined) {
  // A trial that overruns the deadline but completes keeps its result —
  // wall-clock jitter must never change the grid.
  const std::uint64_t slow_seed = sim::fork(909, 0, 3);
  const auto slow = [&](const Point&, std::uint64_t seed, const CancelToken&) -> double {
    if (seed == slow_seed) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return static_cast<double>(seed);
  };
  SupervisorOptions so;
  so.trial_timeout_ms = 5.0;
  const auto out = SupervisedRunner(base_cfg(4, 16), so).run(Sweep{}.cartesian(), slow);
  EXPECT_EQ(out.report.quarantined, 0);
  EXPECT_GT(out.report.timed_out, 0);
  for (const auto& f : out.report.failures) {
    EXPECT_FALSE(f.quarantined);
    EXPECT_EQ(f.kind, TrialFailure::Kind::kTimedOut);
  }
  for (int t = 0; t < 16; ++t)
    EXPECT_EQ(out.results[0][static_cast<std::size_t>(t)],
              static_cast<double>(sim::fork(909, 0, static_cast<std::uint64_t>(t))));
}

TEST(SupervisedRunner, FailFastRethrowsAndSkipsRetries) {
  SupervisorOptions so;
  so.fail_fast = true;
  so.max_retries = 5;
  SupervisedRunner runner(base_cfg(4, 32), so);
  EXPECT_THROW(runner.run(Sweep{}.cartesian(),
                          [](const Point&, std::uint64_t seed) -> int {
                            if (seed % 4 == 0) throw std::runtime_error("boom");
                            return 1;
                          }),
               std::runtime_error);
}

TEST(SupervisedRunner, CheckpointResumeIsBitIdenticalAcrossThreadCounts) {
  const auto points = Sweep{}.axis("offset", {0.0, 5.0, 10.0}).cartesian();
  const auto reference = SupervisedRunner(base_cfg(1, 48)).run(points, mini_trial);

  for (const int resume_threads : {1, 8}) {
    TempCheckpoint ckpt("supervisor_resume_" + std::to_string(resume_threads) + ".json");
    // Phase 1: run with a checkpoint and an interrupt already pending
    // after a few chunks — simulates a kill partway through.
    SupervisorOptions so;
    so.checkpoint_path = ckpt.path();
    so.handle_signals = false;  // drive the flag by hand
    so.flush_every = 1;
    {
      std::atomic<int> ran{0};
      const auto interrupting = [&](const Point& p, std::uint64_t seed) {
        if (ran.fetch_add(1) == 40) request_interrupt();
        return mini_trial(p, seed);
      };
      const auto partial = SupervisedRunner(base_cfg(2, 48), so).run(points, interrupting);
      clear_interrupt();
      EXPECT_TRUE(partial.interrupted);
      // Something was journaled, but not everything.
      const CheckpointFile f = CheckpointFile::load(ckpt.path());
      EXPECT_GT(f.completed_trials(), 0u);
      EXPECT_LT(f.completed_trials(), 3u * 48u);
    }
    // Phase 2: resume at a different thread count; the merged grid and
    // the completed-trial accounting must match an uninterrupted run.
    so.resume = true;
    const auto resumed =
        SupervisedRunner(base_cfg(resume_threads, 48), so).run(points, mini_trial);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.report.resumed_chunks, 0u);
    EXPECT_EQ(resumed.results, reference.results) << "threads " << resume_threads;
    EXPECT_EQ(resumed.report.quarantined, 0);
    EXPECT_EQ(resumed.report.completed, resumed.report.scheduled);
  }
}

TEST(SupervisedRunner, ResumeCarriesFailureRecordsThroughTheJournal) {
  // Poisoned trials quarantined before the kill must still be reported
  // after the resume — the journal carries their failure records.
  const auto points = Sweep{}.cartesian();
  const std::uint64_t bad_seed = sim::fork(909, 0, 5);
  const auto poisoned = [&](const Point& p, std::uint64_t seed) -> double {
    if (seed == bad_seed) throw std::runtime_error("always");
    return mini_trial(p, seed);
  };
  TempCheckpoint ckpt("supervisor_failure_journal.json");
  SupervisorOptions so;
  so.checkpoint_path = ckpt.path();
  so.handle_signals = false;
  so.flush_every = 1;
  so.max_retries = 0;
  const auto first = SupervisedRunner(base_cfg(1, 32), so).run(points, poisoned);
  ASSERT_EQ(first.report.quarantined, 1);
  // Resume over a complete journal: nothing reruns (the trial fn would
  // now succeed), yet the failure record and taxonomy survive.
  so.resume = true;
  const auto resumed = SupervisedRunner(base_cfg(4, 32), so).run(points, mini_trial);
  EXPECT_EQ(resumed.report.resumed_chunks, CheckpointFile::load(ckpt.path()).chunks().size());
  ASSERT_EQ(resumed.report.failures.size(), 1u);
  EXPECT_EQ(resumed.report.failures[0].seed, bad_seed);
  EXPECT_EQ(resumed.report.quarantined, 1);
  EXPECT_TRUE(resumed.report.is_quarantined(0, 5));
  EXPECT_EQ(resumed.results, first.results);
}

TEST(SupervisedRunner, ResumeRejectsForeignCheckpoint) {
  TempCheckpoint ckpt("supervisor_foreign.json");
  SupervisorOptions so;
  so.checkpoint_path = ckpt.path();
  so.handle_signals = false;
  const auto points = Sweep{}.axis("offset", {0.0, 1.0}).cartesian();
  (void)SupervisedRunner(base_cfg(2, 16), so).run(points, mini_trial);
  so.resume = true;
  // Different seed -> CheckpointError, not a silent mis-merge.
  SupervisedRunner other(base_cfg(2, 16, 1234), so);
  EXPECT_THROW(other.run(points, mini_trial), CheckpointError);
  // Different grid -> CheckpointError too.
  SupervisedRunner same_seed(base_cfg(2, 16), so);
  const auto other_points = Sweep{}.axis("offset", {0.0, 2.0}).cartesian();
  EXPECT_THROW(same_seed.run(other_points, mini_trial), CheckpointError);
}

// (threads, flush_every) for an uninterrupted checkpointed campaign.
using JournalParam = std::tuple<int, int>;

class SupervisedRunnerJournal : public ::testing::TestWithParam<JournalParam> {};

TEST_P(SupervisedRunnerJournal, CompleteJournalMatchesSerialReferenceAndResumesToIt) {
  // Checkpointing switches to worker-independent chunks (trials / 64):
  // the grid must still equal the serial reference, the journal must hold
  // every trial in that geometry, and a resume over the complete journal
  // must rebuild the same grid without calling the trial function.
  const auto [threads, flush_every] = GetParam();
  const auto points = Sweep{}.axis("offset", {0.0, 5.0, 10.0}).cartesian();
  const RunnerConfig cfg = base_cfg(threads, 128);
  const auto reference = serial_reference(points, cfg, mini_trial);
  TempCheckpoint ckpt("supervisor_journal_t" + std::to_string(threads) + "_f" +
                      std::to_string(flush_every) + ".json");
  SupervisorOptions so;
  so.checkpoint_path = ckpt.path();
  so.handle_signals = false;
  so.flush_every = flush_every;
  const auto out = SupervisedRunner(cfg, so).run(points, mini_trial);
  EXPECT_EQ(out.results, reference);
  EXPECT_FALSE(out.interrupted);
  EXPECT_EQ(out.report.resumed_chunks, 0u);

  const CheckpointFile f = CheckpointFile::load(ckpt.path());
  EXPECT_EQ(f.chunk, 2);  // 128 trials / 64
  EXPECT_EQ(f.completed_trials(), 3u * 128u);
  EXPECT_EQ(f.chunks().size(), 3u * 64u);
  for (std::size_t p = 0; p < 3; ++p)
    for (int start = 0; start < 128; start += 2) EXPECT_TRUE(f.has_chunk(p, start));

  so.resume = true;
  const auto resumed = SupervisedRunner(base_cfg(3, 128), so)
                           .run(points, [](const Point&, std::uint64_t) -> double {
                             throw std::logic_error("a complete journal reruns nothing");
                           });
  EXPECT_EQ(resumed.results, reference);
  EXPECT_EQ(resumed.report.resumed_chunks, f.chunks().size());
  EXPECT_EQ(resumed.report.failures.size(), 0u);
  EXPECT_EQ(resumed.report.completed, resumed.report.scheduled);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndFlush, SupervisedRunnerJournal,
                         ::testing::Combine(::testing::Values(1, 2, 8),
                                            ::testing::Values(0, 1, 5)),
                         [](const ::testing::TestParamInfo<JournalParam>& info) {
                           return "threads" + std::to_string(std::get<0>(info.param)) +
                                  "_flush" + std::to_string(std::get<1>(info.param));
                         });

TEST(SupervisedRunner, InterruptFlagRoundTrip) {
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
  request_interrupt(15);
  EXPECT_TRUE(interrupt_requested());
  EXPECT_EQ(interrupt_signal(), 15);
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
}

TEST(SupervisedRunner, CampaignReportSummaryLineMentionsTheTaxonomy) {
  CampaignReport r;
  r.scheduled = 100;
  r.completed = 97;
  r.crashed = 2;
  r.timed_out = 1;
  r.quarantined = 3;
  r.retried = 2;
  r.interrupted = true;
  r.resumed_chunks = 4;
  const std::string line = r.summary_line();
  EXPECT_NE(line.find("crashed 2"), std::string::npos);
  EXPECT_NE(line.find("timed-out 1"), std::string::npos);
  EXPECT_NE(line.find("quarantined 3"), std::string::npos);
  EXPECT_NE(line.find("resumed 4 chunks"), std::string::npos);
  EXPECT_NE(line.find("INTERRUPTED"), std::string::npos);
}

}  // namespace
}  // namespace skyferry::exp
