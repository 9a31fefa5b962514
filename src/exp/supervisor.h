// The experiment engine's execution core: fan N deterministic trials per
// sweep point across a ThreadPool. Per-trial seeds come from
// sim::fork(seed, point_index, trial_index) and every result lands in a
// pre-assigned [point][trial] slot, so the grid is bit-identical for any
// thread count and any scheduling order — the parallelism is pure
// wall-clock. Trials are enqueued in contiguous chunks (no work
// stealing) to amortize queue traffic on cheap trials.
//
// On top of that fan-out the SupervisedRunner adds the supervision a
// long campaign needs:
//
//  * per-trial exception capture into TrialFailure records instead of
//    campaign abort, with bounded same-seed retries and quarantine after
//    SupervisorOptions::max_retries (max_retries = 0: record and move
//    on; fail_fast: abort on the first exception);
//  * a soft-deadline watchdog (trial_timeout_ms) that flags hung trials
//    and fires their CancelToken — a cooperative trial observes the
//    token (or calls poll_cancel) and throws TrialCancelled, getting
//    quarantined as timed-out, so one poisoned seed degrades the
//    campaign instead of deadlocking it;
//  * chunk-granularity checkpointing through exp::Codec<T> with atomic
//    tmp+rename snapshots, SIGINT/SIGTERM flush-and-exit-resumable, and
//    --resume semantics that skip completed chunks: a killed-and-resumed
//    campaign merges to a bit-identical result grid.
//
// Requires an exp::Codec<T> specialization for the trial result type
// (int/double/uint64 are built in; fault::TrialResult lives in
// fault/trial_codec.h).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/codec.h"
#include "exp/run_stats.h"
#include "exp/sweep.h"
#include "exp/thread_pool.h"
#include "sim/rng.h"

namespace skyferry::exp {

struct RunnerConfig {
  int threads{0};  ///< <= 0: one worker per hardware thread
  int trials{1};   ///< seeded trials per sweep point
  std::uint64_t seed{1};
  /// Trials per enqueued task; <= 0 picks ~4 chunks per worker per point
  /// (small enough to balance, big enough to amortize queueing), or
  /// ~64 chunks per point when checkpointing.
  int chunk{0};
};

/// Timing sidecar of one run: wall time, throughput, occupancy,
/// per-point latency quantiles.
RunStats make_run_stats(const RunnerConfig& cfg, const std::vector<Point>& points,
                        const std::vector<std::vector<double>>& latency_ms, int workers,
                        int chunk, double wall_s);

/// Cooperative cancellation handle passed to trials that accept a third
/// parameter: fn(point, seed, const CancelToken&). stop_requested()
/// flips when the deadline watchdog flags the trial.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(const std::atomic<bool>* flag) noexcept : flag_(flag) {}
  [[nodiscard]] bool stop_requested() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* flag_{nullptr};
};

/// Thrown by a cooperative trial when its CancelToken fires; the
/// supervisor quarantines the trial as timed-out (no retry — a hung
/// seed would hang again).
struct TrialCancelled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Convenience for cooperative trials: throw TrialCancelled when the
/// watchdog has flagged this trial.
inline void poll_cancel(const CancelToken& token) {
  if (token.stop_requested())
    throw TrialCancelled("trial cancelled by the deadline watchdog");
}

// ---- campaign-wide interrupt flag ------------------------------------------
// SIGINT/SIGTERM set one async-signal-safe flag; the supervisor polls it
// between chunk completions, flushes the checkpoint, and returns with
// CampaignResult::interrupted so the caller can exit resumable.

/// True once SIGINT/SIGTERM was received (or request_interrupt called).
[[nodiscard]] bool interrupt_requested() noexcept;
/// Signal number that interrupted the campaign (0 if none).
[[nodiscard]] int interrupt_signal() noexcept;
/// Test hook: trip the same flag the signal handler sets.
void request_interrupt(int signal = 2) noexcept;
/// Reset the flag (tests; a resumed in-process campaign).
void clear_interrupt() noexcept;

/// RAII SIGINT/SIGTERM capture: installs handlers that set the interrupt
/// flag, restores the previous handlers on destruction. Nesting-safe.
class ScopedInterruptHandlers {
 public:
  ScopedInterruptHandlers();
  ~ScopedInterruptHandlers();
  ScopedInterruptHandlers(const ScopedInterruptHandlers&) = delete;
  ScopedInterruptHandlers& operator=(const ScopedInterruptHandlers&) = delete;
};

struct SupervisorOptions {
  std::string name{"campaign"};  ///< stats/checkpoint header name
  /// Extra same-seed attempts after a crashed trial before quarantine.
  int max_retries{1};
  /// Soft per-trial deadline; <= 0 disables the watchdog. Cooperative
  /// trials (token-aware) get cancelled and quarantined; others are
  /// flagged in the report but keep their (late) result.
  double trial_timeout_ms{0.0};
  /// First trial exception aborts the campaign (after in-flight work
  /// drains) and rethrows. No retries.
  bool fail_fast{false};
  /// Journal completed chunks here (empty = no persistence). Written
  /// atomically (tmp+rename), so a SIGKILL never leaves a torn file.
  std::string checkpoint_path{};
  /// Load checkpoint_path (when it exists) and skip completed chunks.
  bool resume{false};
  /// Snapshot every N completed chunks; <= 0 picks ~64 snapshots per
  /// campaign. The final state is always flushed.
  int flush_every{0};
  /// Install SIGINT/SIGTERM flush-and-exit-resumable handlers for the
  /// duration of the run (only when checkpointing).
  bool handle_signals{true};
  /// Per-failure replay command prefix; the forked trial seed is
  /// appended ("bench --replay-trial" -> "bench --replay-trial 123").
  /// Empty = no replay command in the report.
  std::string replay_prefix{};
};

/// Failure taxonomy of one campaign, folded into the stats.json sidecar.
struct CampaignReport {
  int scheduled{0};       ///< points x trials
  int completed{0};       ///< scheduled - quarantined
  int crashed{0};         ///< trials whose attempts threw
  int timed_out{0};       ///< trials flagged by the watchdog
  int quarantined{0};     ///< trials with no usable result
  int retried{0};         ///< extra same-seed attempts
  std::size_t resumed_chunks{0};  ///< chunks skipped via --resume
  bool interrupted{false};        ///< flushed + stopped on SIGINT/SIGTERM
  std::vector<TrialFailure> failures;  ///< sorted by (point, trial)

  /// Copy the counts + records into the RunStats sidecar.
  void fold_into(RunStats& st) const;
  /// "# campaign: 3 failed of 2000 (crashed 2, timed-out 1, quarantined 3), 2 retries"
  [[nodiscard]] std::string summary_line() const;
  /// True if (point, trial) ended quarantined (slot holds a default).
  [[nodiscard]] bool is_quarantined(std::size_t point, int trial) const noexcept;
};

/// One supervised campaign's output: the deterministic grid, the timing
/// sidecar (failure counts folded in), and the failure taxonomy.
template <class T>
struct CampaignResult {
  std::vector<std::vector<T>> results;
  RunStats stats;
  CampaignReport report;
  /// Interrupted by SIGINT/SIGTERM: the grid is partial, the checkpoint
  /// holds every completed chunk, and rerunning with resume finishes it.
  bool interrupted{false};

  [[nodiscard]] const std::vector<T>& point(std::size_t i) const { return results.at(i); }
};

namespace detail {

/// Trial-function traits: a trial may take (point, seed) or
/// (point, seed, const CancelToken&); the token form wins when both work.
template <class TrialFn>
struct TrialTraits {
  static constexpr bool takes_token =
      std::is_invocable_v<TrialFn&, const Point&, std::uint64_t, const CancelToken&>;
  using result_type = typename std::conditional_t<
      takes_token,
      std::invoke_result<TrialFn&, const Point&, std::uint64_t, const CancelToken&>,
      std::invoke_result<TrialFn&, const Point&, std::uint64_t>>::type;
};

/// Watchdog registry entry for one in-flight trial attempt.
struct InFlight {
  std::size_t point{0};
  int trial{0};
  std::chrono::steady_clock::time_point start;
  std::atomic<bool> cancel{false};
  bool flagged{false};  // guarded by the registry mutex
};

}  // namespace detail

class SupervisedRunner {
 public:
  explicit SupervisedRunner(RunnerConfig base, SupervisorOptions opts = {})
      : base_(std::move(base)), opts_(std::move(opts)) {}

  [[nodiscard]] const RunnerConfig& config() const noexcept { return base_; }
  [[nodiscard]] const SupervisorOptions& options() const noexcept { return opts_; }

  /// Run `fn(point, trial_seed[, token])` for every (point, trial) pair
  /// under supervision. Throws CheckpointError on an unusable checkpoint
  /// and rethrows the first trial exception only under fail_fast.
  template <class TrialFn>
  auto run(const std::vector<Point>& points, TrialFn&& fn)
      -> CampaignResult<typename detail::TrialTraits<TrialFn>::result_type> {
    using Traits = detail::TrialTraits<TrialFn>;
    using T = typename Traits::result_type;
    static_assert(!std::is_void_v<T>, "trial function must return a value");
    static_assert(!std::is_same_v<T, bool>,
                  "return int, not bool: vector<bool> packs bits and concurrent slot writes race");

    const int trials = base_.trials > 0 ? base_.trials : 0;
    const bool checkpointing = !opts_.checkpoint_path.empty();

    CampaignResult<T> out;
    out.results.assign(points.size(), {});
    for (auto& row : out.results) row.resize(static_cast<std::size_t>(trials));
    out.report.scheduled = static_cast<int>(points.size()) * trials;

    ThreadPool pool(base_.threads);
    const int workers = pool.size();
    // Checkpoint chunk geometry must not depend on the worker count, or
    // a checkpoint taken at --threads 8 could not resume at --threads 1.
    int chunk = base_.chunk > 0 ? base_.chunk
                : checkpointing ? std::max(1, trials / 64)
                                : std::max(1, trials / std::max(1, workers * 4));

    const std::string grid = grid_signature(points);
    CheckpointFile journal;
    journal.name = opts_.name;
    journal.seed = base_.seed;
    journal.trials = trials;
    journal.points = points.size();
    journal.grid = grid;

    // Resume: adopt the checkpoint's chunk geometry, replay completed
    // chunks into the grid, and skip them below.
    if (checkpointing && opts_.resume && checkpoint_exists(opts_.checkpoint_path)) {
      CheckpointFile prev = CheckpointFile::load(opts_.checkpoint_path);
      prev.require_match(base_.seed, trials, points.size(), grid);
      if (base_.chunk > 0 && prev.chunk != chunk)
        throw CheckpointError("checkpoint: chunk geometry mismatch (file has " +
                              std::to_string(prev.chunk) + ", --chunk asked for " +
                              std::to_string(chunk) + ")");
      chunk = prev.chunk;
      journal.chunk = chunk;
      for (const ChunkRecord& rec : prev.chunks()) {
        if (rec.start % chunk != 0 || rec.end != std::min(rec.start + chunk, trials))
          throw CheckpointError("checkpoint: chunk [" + std::to_string(rec.start) + ", " +
                                std::to_string(rec.end) + ") does not match geometry " +
                                std::to_string(chunk));
        decode_range<T>(rec.results, out.results[rec.point].data() + rec.start,
                        static_cast<std::size_t>(rec.end - rec.start));
        for (const TrialFailure& f : rec.failures) out.report.failures.push_back(f);
        journal.add_chunk(rec);
        ++out.report.resumed_chunks;
      }
    } else {
      journal.chunk = chunk;
    }

    // One latency slot per trial, written lock-free by pre-assignment.
    std::vector<std::vector<double>> latency_ms(points.size());
    for (auto& row : latency_ms) row.resize(static_cast<std::size_t>(trials), 0.0);

    struct Completion {
      bool checkpointable{false};
      ChunkRecord rec;
    };
    std::mutex mu;                       // guards completions + failures + first_error
    std::condition_variable cv;
    std::deque<Completion> completions;
    std::vector<TrialFailure> failures;
    std::exception_ptr first_error;      // first trial exception (fail_fast)
    std::exception_ptr internal_error;   // supervisor bug (encode failure, ...)
    std::atomic<bool> abort{false};      // fail_fast trip wire

    // Watchdog registry: in-flight attempts with their cancel flags.
    std::mutex registry_mu;
    std::list<detail::InFlight> registry;
    const bool watchdog_on = opts_.trial_timeout_ms > 0.0;
    std::jthread watchdog;
    if (watchdog_on) {
      const auto timeout =
          std::chrono::duration<double, std::milli>(opts_.trial_timeout_ms);
      const auto poll = std::chrono::milliseconds(
          std::clamp(static_cast<long>(opts_.trial_timeout_ms / 4.0), 1L, 100L));
      watchdog = std::jthread([&, timeout, poll](const std::stop_token& stop) {
        while (!stop.stop_requested()) {
          std::this_thread::sleep_for(poll);
          const auto now = std::chrono::steady_clock::now();
          const std::lock_guard<std::mutex> lock(registry_mu);
          for (auto& entry : registry) {
            if (!entry.flagged && now - entry.start > timeout) {
              entry.flagged = true;
              entry.cancel.store(true, std::memory_order_relaxed);
            }
          }
        }
      });
    }

    // Signal capture for flush-and-exit-resumable (checkpointing only).
    std::optional<ScopedInterruptHandlers> signals;
    if (checkpointing && opts_.handle_signals) signals.emplace();

    const int retries_allowed = opts_.fail_fast ? 0 : std::max(0, opts_.max_retries);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<void>> futures;
    std::size_t submitted = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (int start = 0; start < trials; start += chunk) {
        const int end = std::min(start + chunk, trials);
        if (journal.has_chunk(p, start)) continue;  // resumed
        ++submitted;
        futures.push_back(pool.submit([&, p, start, end]() {
          Completion done;
          try {
            const Point& pt = points[p];
            std::vector<TrialFailure> chunk_failures;
            const bool skipped = abort.load(std::memory_order_relaxed) ||
                                 interrupt_requested();
            if (!skipped) {
              for (int t = start; t < end; ++t) {
                run_one_trial<Traits>(fn, pt, t, retries_allowed, watchdog_on, registry_mu,
                                      registry, out.results[p][static_cast<std::size_t>(t)],
                                      latency_ms[p][static_cast<std::size_t>(t)],
                                      chunk_failures);
              }
              if (checkpointing) {
                done.checkpointable = true;
                done.rec.point = p;
                done.rec.start = start;
                done.rec.end = end;
                done.rec.results = encode_range<T>(out.results[p].data() + start,
                                                   static_cast<std::size_t>(end - start));
                done.rec.failures = chunk_failures;
              }
            }
            const std::lock_guard<std::mutex> lock(mu);
            for (auto& f : chunk_failures) {
              if (f.kind == TrialFailure::Kind::kCrashed && !first_error)
                first_error = std::make_exception_ptr(
                    std::runtime_error(f.type + ": " + f.what));
              failures.push_back(std::move(f));
            }
            if (opts_.fail_fast && first_error) abort.store(true, std::memory_order_relaxed);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(mu);
            if (!internal_error) internal_error = std::current_exception();
            done.checkpointable = false;
          }
          {
            const std::lock_guard<std::mutex> lock(mu);
            completions.push_back(std::move(done));
          }
          cv.notify_one();
        }));
      }
    }

    // Main loop: fold completed chunks into the journal, snapshot
    // periodically, and watch for the interrupt flag.
    const int flush_every = opts_.flush_every > 0
                                ? opts_.flush_every
                                : std::max(1, static_cast<int>(submitted) / 64);
    std::size_t done_count = 0;
    int since_flush = 0;
    bool interrupted = false;
    while (done_count < submitted) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::milliseconds(50),
                  [&] { return !completions.empty(); });
      std::deque<Completion> batch;
      batch.swap(completions);
      lock.unlock();
      if (!interrupted && interrupt_requested()) interrupted = true;
      for (auto& c : batch) {
        ++done_count;
        if (c.checkpointable) {
          journal.add_chunk(std::move(c.rec));
          ++since_flush;
        }
      }
      if (checkpointing && (since_flush >= flush_every || (interrupted && since_flush > 0))) {
        journal.save_atomic(opts_.checkpoint_path);
        since_flush = 0;
      }
    }
    if (checkpointing && since_flush > 0) journal.save_atomic(opts_.checkpoint_path);
    for (auto& f : futures) f.get();
    if (!interrupted && interrupt_requested()) {
      // The signal landed after the last chunk: everything is already
      // journaled; still report the interruption to the caller.
      interrupted = true;
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (watchdog.joinable()) {
      watchdog.request_stop();
      watchdog.join();
    }
    if (internal_error) std::rethrow_exception(internal_error);
    if (opts_.fail_fast && first_error) std::rethrow_exception(first_error);

    out.stats = make_run_stats(base_, points, latency_ms, workers, chunk,
                               std::chrono::duration<double>(t1 - t0).count());
    out.stats.name = opts_.name;
    for (auto& f : failures) out.report.failures.push_back(std::move(f));
    finalize_report(out.report, interrupted);
    out.report.fold_into(out.stats);
    out.interrupted = interrupted;
    return out;
  }

  /// Sweep-less convenience: N supervised trials of one implicit point.
  template <class TrialFn>
  auto run_trials(TrialFn&& fn)
      -> CampaignResult<typename detail::TrialTraits<TrialFn>::result_type> {
    return run(Sweep{}.cartesian(), std::forward<TrialFn>(fn));
  }

 private:
  [[nodiscard]] static bool checkpoint_exists(const std::string& path);
  /// Sort failures, fill the taxonomy counts, stamp the interrupt flag.
  static void finalize_report(CampaignReport& report, bool interrupted);

  /// One trial with retries, watchdog registration, and failure capture.
  /// Writes the result slot (left default on quarantine) and the latency
  /// slot; appends failure records to `chunk_failures`.
  template <class Traits, class TrialFn, class T>
  void run_one_trial(TrialFn& fn, const Point& pt, int t, int retries_allowed,
                     bool watchdog_on, std::mutex& registry_mu,
                     std::list<detail::InFlight>& registry, T& slot, double& latency_slot,
                     std::vector<TrialFailure>& chunk_failures) {
    const std::uint64_t seed = sim::fork(base_.seed, pt.index, static_cast<std::uint64_t>(t));
    TrialFailure record;
    record.point = pt.index;
    record.trial = t;
    record.seed = seed;
    record.point_label = pt.label();
    if (!opts_.replay_prefix.empty())
      record.replay_cmd = opts_.replay_prefix + " " + std::to_string(seed);
    bool crashed_once = false;
    for (int attempt = 1; attempt <= retries_allowed + 1; ++attempt) {
      record.attempts = attempt;
      std::list<detail::InFlight>::iterator entry;
      if (watchdog_on) {
        const std::lock_guard<std::mutex> lock(registry_mu);
        entry = registry.emplace(registry.end());
        entry->point = pt.index;
        entry->trial = t;
        entry->start = std::chrono::steady_clock::now();
      }
      const CancelToken token = watchdog_on ? CancelToken(&entry->cancel) : CancelToken();
      enum class Outcome { kOk, kCancelled, kThrew } outcome = Outcome::kOk;
      const auto s0 = std::chrono::steady_clock::now();
      try {
        if constexpr (Traits::takes_token) {
          slot = fn(pt, seed, token);
        } else {
          slot = fn(pt, seed);
        }
      } catch (const TrialCancelled& e) {
        outcome = Outcome::kCancelled;
        record.type = "skyferry::exp::TrialCancelled";
        record.what = e.what();
      } catch (...) {
        outcome = Outcome::kThrew;
        describe_current_exception(record.type, record.what);
      }
      const auto s1 = std::chrono::steady_clock::now();
      latency_slot = std::chrono::duration<double, std::milli>(s1 - s0).count();
      bool flagged = false;
      if (watchdog_on) {
        const std::lock_guard<std::mutex> lock(registry_mu);
        flagged = entry->flagged;
        registry.erase(entry);
      }

      if (outcome == Outcome::kOk) {
        if (flagged) {
          // Overran the deadline but still produced a result: keep it,
          // flag it — wall-clock must never change the grid.
          record.kind = TrialFailure::Kind::kTimedOut;
          record.quarantined = false;
          record.type = "deadline";
          record.what = "exceeded trial deadline but completed; result kept";
          chunk_failures.push_back(record);
        } else if (crashed_once) {
          // Recovered via retry: record the crash, keep the result.
          record.kind = TrialFailure::Kind::kCrashed;
          record.quarantined = false;
          chunk_failures.push_back(record);
        }
        return;
      }
      if (outcome == Outcome::kCancelled) {
        // A hung seed would hang again — quarantine without retry.
        slot = T{};
        record.kind = TrialFailure::Kind::kTimedOut;
        record.quarantined = true;
        chunk_failures.push_back(record);
        return;
      }
      crashed_once = true;
      if (attempt > retries_allowed) {
        slot = T{};
        record.kind = TrialFailure::Kind::kCrashed;
        record.quarantined = true;
        chunk_failures.push_back(record);
        return;
      }
      // Retry with the same forked seed (the slot is overwritten on
      // success, so a partial write from the failed attempt is fine).
      slot = T{};
    }
  }

  RunnerConfig base_;
  SupervisorOptions opts_;
};

}  // namespace skyferry::exp
