#include "sim/simulator.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace skyferry::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, FifoForSimultaneousEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule(1.0, [&] { sim.schedule(2.0, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports failure
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelInvalidId) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(2.0, [&] { ++count; });
  sim.schedule(5.0, [&] { ++count; });
  sim.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  double t = -1.0;
  sim.schedule(-3.0, [&] { t = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelled) {
  Simulator sim;
  bool ran = false;
  const EventId a = sim.schedule(1.0, [&] { ran = true; });
  sim.cancel(a);
  int count = 0;
  sim.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());  // skips the cancelled one, runs the real one
  EXPECT_FALSE(ran);
  EXPECT_EQ(count, 1);
}

TEST(Simulator, ResetClearsEverything) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  sim.schedule(9.0, [] {});
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SchedulePeriodic, RepeatsUntilFalse) {
  Simulator sim;
  int ticks = 0;
  schedule_periodic(sim, 1.0, [&] { return ++ticks < 5; });
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, CancelAfterExecutionFailsAndKeepsPendingSane) {
  // Regression: cancelling an id that already executed used to record a
  // cancelled placeholder that never surfaced, making pending() =
  // queue_size - cancelled_count underflow to a huge size_t. Ids are now
  // generation-checked, so the stale cancel is a counted-for-nothing no-op.
  Simulator sim;
  int ran = 0;
  const EventId a = sim.schedule(1.0, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sim.cancel(a));  // already executed
  EXPECT_EQ(sim.pending(), 0u);

  // Cancel-then-run-then-cancel: the second cancel must also fail, and
  // pending() must stay exact throughout.
  const EventId b = sim.schedule(1.0, [&] { ++ran; });
  const EventId c = sim.schedule(2.0, [&] { ++ran; });
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.cancel(b));
  EXPECT_FALSE(sim.cancel(c));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StaleIdCannotCancelRecycledSlot) {
  // After an event executes (or is cancelled), its storage slot is
  // recycled for new events. The old id must not be able to cancel the
  // slot's next tenant.
  Simulator sim;
  const EventId old_id = sim.schedule(1.0, [] {});
  sim.run();
  bool ran = false;
  sim.schedule(1.0, [&] { ran = true; });  // reuses the freed slot
  EXPECT_FALSE(sim.cancel(old_id));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, PreResetIdsAreDeadAfterReset) {
  // reset() retires every slot generation: ids issued before the reset
  // can neither cancel nor corrupt pending() afterwards.
  Simulator sim;
  const EventId a = sim.schedule(5.0, [] {});
  sim.reset();
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 0u);
  bool ran = false;
  sim.schedule(1.0, [&] { ran = true; });
  EXPECT_FALSE(sim.cancel(a));  // still dead, even with the slot re-let
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelStormKeepsAccountingExact) {
  // Interleaved schedule/cancel/execute churn: pending() must equal the
  // live count at every step and never wrap.
  Simulator sim;
  std::vector<EventId> ids;
  int ran = 0;
  for (int round = 0; round < 10; ++round) {
    ids.clear();
    for (int i = 0; i < 20; ++i) {
      ids.push_back(sim.schedule(1.0 + i, [&] { ++ran; }));
    }
    EXPECT_EQ(sim.pending(), 20u);
    for (int i = 0; i < 20; i += 2) EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
    for (int i = 0; i < 20; i += 2) EXPECT_FALSE(sim.cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_EQ(sim.pending(), 10u);
    sim.run();
    EXPECT_EQ(sim.pending(), 0u);
  }
  EXPECT_EQ(ran, 100);
}

TEST(Simulator, ReserveDoesNotDisturbSemantics) {
  Simulator sim;
  sim.reserve(64);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ManyEventsStressOrder) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    // Deterministic pseudo-shuffled times.
    const double t = static_cast<double>((i * 7919) % 10007) / 10.0;
    sim.schedule_at(t, [&, t] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_executed(), 10000u);
}

TEST(Simulator, RejectsNonFiniteTimes) {
  // Regression: a NaN/Inf time (e.g. division by a zero throughput
  // sample) used to enqueue an event that could never surface and wedged
  // the queue. Such schedules are now counted and dropped.
  Simulator sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  bool fired = false;
  EXPECT_EQ(sim.schedule(nan, [&] { fired = true; }), 0u);
  EXPECT_EQ(sim.schedule(inf, [&] { fired = true; }), 0u);
  EXPECT_EQ(sim.schedule_at(nan, [&] { fired = true; }), 0u);
  EXPECT_EQ(sim.schedule_at(-inf, [&] { fired = true; }), 0u);
  EXPECT_EQ(sim.rejected_nonfinite(), 4u);
  EXPECT_EQ(sim.pending(), 0u);

  // A healthy event after the corrupt ones still runs to completion.
  sim.schedule(1.0, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.events_executed(), 1u);

  // The invalid id 0 is not cancellable and reset clears the counter.
  EXPECT_FALSE(sim.cancel(0));
  sim.reset();
  EXPECT_EQ(sim.rejected_nonfinite(), 0u);
}

TEST(Simulator, StopEndsRunUntilAfterTheCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] {
    order.push_back(2);
    sim.stop();
  });
  sim.schedule(2.0, [&] { order.push_back(22); });  // same time, later in FIFO order
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.run_until(10.0);
  // The clock stays at the stopping event's time, not at t_end.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending(), 2u);

  // Later events stay pending and the next run picks them up.
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 22, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StopEndsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, StopOutsideARunIsForgotten) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(2.0, [&] { ++fired; });
  sim.stop();
  sim.run_until(3.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

}  // namespace
}  // namespace skyferry::sim
