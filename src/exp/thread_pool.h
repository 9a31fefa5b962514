// Fixed-size worker pool for the experiment engine. Deliberately
// work-stealing-free: one shared FIFO queue, workers pull whole tasks.
// Determinism comes from the *callers* (the SupervisedRunner enqueues
// chunks whose results land in pre-assigned slots), so the pool itself
// only needs to run every task exactly once and propagate exceptions —
// which it does through std::future, never by terminating a worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace skyferry::exp {

/// Resolve a thread-count request: n >= 1 is taken literally, n <= 0
/// means "one per hardware thread" (at least 1).
[[nodiscard]] int resolve_threads(int requested) noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers (<= 0: hardware concurrency). Workers are
  /// std::jthread, so destruction stops and joins them automatically
  /// after the queue drains.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Run `f()` on a worker. The returned future carries the result or
  /// whatever exception `f` threw.
  template <class F>
  [[nodiscard]] auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

 private:
  void enqueue(std::function<void()> fn);
  void worker_loop(const std::stop_token& stop);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_{false};
  std::vector<std::jthread> workers_;
};

}  // namespace skyferry::exp
