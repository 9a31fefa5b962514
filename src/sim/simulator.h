// Discrete-event simulation engine: a clock plus a time-ordered event
// queue with stable FIFO ordering for simultaneous events. Flight,
// link and mission simulations all run on this engine.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace skyferry::sim {

using EventFn = std::function<void()>;
using EventId = std::uint64_t;

/// Single-threaded discrete-event simulator.
///
/// Events scheduled for the same time fire in scheduling order. Events
/// may schedule further events and may cancel pending ones. Time never
/// goes backwards.
///
/// Storage: callables live in a pooled slot array that recycles
/// std::function capacity across events, and the heap orders 24-byte
/// POD entries {time, seq, slot, gen} — sift operations move no
/// std::function state, which is what makes dense event churn (the
/// fleet engine's spawn/fault bridge, kinematics ticks) cheap.
class Simulator {
 public:
  /// Current simulation time [s].
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of events still pending. Cancelled events leave the count
  /// immediately (their heap placeholder is skipped when it surfaces).
  [[nodiscard]] std::size_t pending() const noexcept { return live_count_; }

  /// Pre-size the slot pool and heap for `events` concurrent events.
  void reserve(std::size_t events);

  /// Schedule `fn` to run `delay_s` seconds from now (delay clamped to >= 0).
  /// A NaN/Inf delay is rejected: the event is dropped, the rejection is
  /// counted, and the invalid id 0 is returned.
  EventId schedule(double delay_s, EventFn fn);

  /// Schedule `fn` at absolute time `t_s` (clamped to >= now()). A NaN/Inf
  /// time is rejected (counted, returns the invalid id 0) so a corrupted
  /// sample cannot wedge the queue with an event that never surfaces.
  EventId schedule_at(double t_s, EventFn fn);

  /// Number of schedule calls rejected for non-finite times.
  [[nodiscard]] std::uint64_t rejected_nonfinite() const noexcept { return rejected_nonfinite_; }

  /// Cancel a pending event. Returns false if already executed/cancelled
  /// (ids are generation-checked, so cancelling a stale id — even one
  /// whose slot was recycled — is a safe no-op).
  bool cancel(EventId id);

  /// Run until the queue empties or `t_end_s` is reached, whichever is
  /// first. The clock is left at min(t_end_s, last event time) — or, when
  /// an event calls stop(), at that event's time.
  void run_until(double t_end_s);

  /// Run until the queue empties (or an event calls stop()).
  void run();

  /// Called from inside an event: end the current run_until()/run() once
  /// that event returns. The clock stays at the event's time and every
  /// later event stays pending; the next run call starts afresh.
  void stop() noexcept { stop_ = true; }

  /// Execute the single next event, if any. Returns false when idle.
  bool step();

  /// Drop all pending events and reset the clock to zero. Ids issued
  /// before the reset stay dead: their generations are retired, so a
  /// stale cancel() after reset() cannot touch a recycled slot.
  void reset();

 private:
  /// Heap entry: plain data, ordered by (t, seq). `seq` is monotonically
  /// increasing, providing the FIFO tie-break for simultaneous events.
  struct HeapEntry {
    double t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  /// Pooled callable storage. `gen` is bumped every time the slot is
  /// vacated (execute/cancel/reset), which both invalidates outstanding
  /// EventIds and marks heap placeholders stale.
  struct Slot {
    EventFn fn;
    std::uint32_t gen{0};
  };

  static EventId encode(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | (slot + 1u);
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  /// Pop the heap top; runs it if live. Returns false for a stale
  /// (cancelled) placeholder, which neither advances the clock nor
  /// counts as executed.
  bool execute_top();

  double now_{0.0};
  bool stop_{false};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::uint64_t rejected_nonfinite_{0};
  std::size_t live_count_{0};
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// Helper: schedule `fn` every `period_s` seconds starting at now+period,
/// until it returns false. Returns the first event's id.
EventId schedule_periodic(Simulator& sim, double period_s, std::function<bool()> fn);

}  // namespace skyferry::sim
