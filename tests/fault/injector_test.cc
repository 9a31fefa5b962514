#include "fault/injector.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace skyferry::fault {
namespace {

TEST(FaultPlan, NonePlanInjectsNothing) {
  sim::Simulator sim;
  FaultInjector inj(sim, FaultPlan::none());
  inj.start(1e4);
  sim.run();
  EXPECT_TRUE(inj.log().empty());
  EXPECT_TRUE(inj.link_up());
  EXPECT_TRUE(inj.gps_up());
  EXPECT_FALSE(inj.drop_control_message());
  EXPECT_TRUE(std::isinf(inj.sample_crash_distance(0)));
}

TEST(FaultInjector, LinkOutagesAlternateAndLog) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.link_outage = {1.0 / 20.0, 2.0};  // ~every 20 s, ~2 s fades
  plan.seed = 99;
  FaultInjector inj(sim, plan);
  int downs = 0, ups = 0;
  bool last_up = true;
  inj.on_link_change([&](bool up, double) {
    // Strict alternation: every flip inverts the previous state.
    EXPECT_NE(up, last_up);
    last_up = up;
    downs += up ? 0 : 1;
    ups += up ? 1 : 0;
  });
  inj.start(2000.0);
  sim.run();
  EXPECT_GT(downs, 10);  // ~100 expected at rate 1/20 over 2000 s
  EXPECT_NEAR(static_cast<double>(ups), static_cast<double>(downs), 1.0);
  // Every observer flip also landed in the log.
  EXPECT_EQ(inj.log().size(), static_cast<std::size_t>(downs + ups));
}

TEST(FaultInjector, OutageProcessIsSeedDeterministic) {
  auto trace = [](std::uint64_t seed) {
    sim::Simulator sim;
    FaultPlan plan;
    plan.link_outage = {0.05, 1.5};
    plan.seed = seed;
    FaultInjector inj(sim, plan);
    inj.start(500.0);
    sim.run();
    std::vector<double> ts;
    for (const auto& e : inj.log()) ts.push_back(e.t_s);
    return ts;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(FaultInjector, ControlLossMatchesProbability) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.control_loss.loss_probability = 0.3;
  plan.seed = 4242;
  FaultInjector inj(sim, plan);
  int lost = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) lost += inj.drop_control_message() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.3, 0.02);
  EXPECT_EQ(inj.log().size(), static_cast<std::size_t>(lost));
}

TEST(FaultInjector, CrashDistancePerUavIsIndependentAndStable) {
  sim::Simulator sim;
  FaultPlan plan = FaultPlan::crashes_only(1e-3);
  plan.seed = 5;
  FaultInjector inj(sim, plan);
  const double d0 = inj.sample_crash_distance(0);
  const double d1 = inj.sample_crash_distance(1);
  EXPECT_NE(d0, d1);
  // Re-draw of the same UAV gives the same distance: one failure point
  // per UAV per trial, independent of call order.
  EXPECT_DOUBLE_EQ(inj.sample_crash_distance(0), d0);
  EXPECT_DOUBLE_EQ(inj.sample_crash_distance(1), d1);
  EXPECT_GT(d0, 0.0);
}

TEST(FaultInjector, GpsDropoutsIndependentOfLinkStream) {
  // Enabling GPS dropouts must not perturb the link-outage draw sequence.
  auto link_trace = [](bool with_gps) {
    sim::Simulator sim;
    FaultPlan plan;
    plan.link_outage = {0.05, 1.0};
    if (with_gps) plan.gps_dropout = {0.02, 2.0};
    plan.seed = 31;
    FaultInjector inj(sim, plan);
    inj.start(500.0);
    sim.run();
    std::vector<double> ts;
    for (const auto& e : inj.log()) {
      if (e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp) ts.push_back(e.t_s);
    }
    return ts;
  };
  EXPECT_EQ(link_trace(false), link_trace(true));
}

// --- play_out(): the renewal processes finished without the event queue ---

struct Outcome {
  std::vector<FaultEvent> log;
  bool link_up{true};
  bool gps_up{true};
  int link_downs{0};
  int gps_downs{0};
};

Outcome outcome_of(const FaultInjector& inj) {
  Outcome o;
  o.log = inj.log();
  o.link_up = inj.link_up();
  o.gps_up = inj.gps_up();
  for (const auto& e : o.log) {
    o.link_downs += e.kind == FaultKind::kLinkDown ? 1 : 0;
    o.gps_downs += e.kind == FaultKind::kGpsDown ? 1 : 0;
  }
  return o;
}

/// Every flip executed as a simulator event up to t_end.
Outcome run_to_end(const FaultPlan& plan, double t_end) {
  sim::Simulator sim;
  FaultInjector inj(sim, plan);
  inj.start(t_end);
  sim.run_until(t_end);
  return outcome_of(inj);
}

/// An event at `stop_t` stops the run; play_out() finishes it. With
/// `stop_on_flip` > 0 the run instead stops inside the observer of that
/// (1-based) link flip, right after the flip executed.
Outcome stop_and_play_out(const FaultPlan& plan, double t_end, double stop_t, int stop_on_flip = 0) {
  sim::Simulator sim;
  FaultInjector inj(sim, plan);
  int flips = 0;
  if (stop_on_flip > 0) {
    inj.on_link_change([&](bool, double) {
      if (++flips == stop_on_flip) sim.stop();
    });
  } else {
    // Scheduled before start(): at an equal time it runs ahead of the
    // flip, which is left for play_out().
    sim.schedule_at(stop_t, [&] { sim.stop(); });
  }
  inj.start(t_end);
  sim.run_until(t_end);
  inj.play_out();
  inj.play_out();  // idempotent: nothing is left to play
  // The cancelled flip events never fire afterwards.
  sim.run_until(t_end);
  return outcome_of(inj);
}

void expect_same_outcome(const Outcome& want, const Outcome& got) {
  ASSERT_EQ(want.log.size(), got.log.size());
  for (std::size_t i = 0; i < want.log.size(); ++i) {
    EXPECT_EQ(want.log[i].kind, got.log[i].kind) << "entry " << i;
    EXPECT_EQ(want.log[i].t_s, got.log[i].t_s) << "entry " << i;
    EXPECT_EQ(want.log[i].uav, got.log[i].uav) << "entry " << i;
  }
  EXPECT_EQ(want.link_up, got.link_up);
  EXPECT_EQ(want.gps_up, got.gps_up);
  EXPECT_EQ(want.link_downs, got.link_downs);
  EXPECT_EQ(want.gps_downs, got.gps_downs);
}

TEST(FaultInjector, PlayOutMatchesRunningEveryFlip) {
  const double t_end = 7200.0;
  sim::Rng pick(2024);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan plan = FaultPlan::harsh();
    if (seed % 3 == 0) {
      plan.link_outage = {0.5, 0.7};  // dense flips
    } else if (seed % 4 == 0) {
      plan.gps_dropout = {};  // link only
    } else if (seed % 5 == 0) {
      plan.link_outage = {};  // GPS only
    }
    plan.seed = seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Outcome want = run_to_end(plan, t_end);
    ASSERT_FALSE(want.log.empty());

    // Random stop times, before the first event and after the last.
    for (int k = 0; k < 5; ++k) {
      expect_same_outcome(want, stop_and_play_out(plan, t_end, pick.uniform(0.0, t_end)));
    }
    expect_same_outcome(want, stop_and_play_out(plan, t_end, 0.0));
    expect_same_outcome(want, stop_and_play_out(plan, t_end, want.log.back().t_s + 1e-3));
    expect_same_outcome(want, stop_and_play_out(plan, t_end, t_end));
    // Exactly at a flip time: the stop runs first and the flip is replayed.
    const auto at = static_cast<std::size_t>(pick.uniform_int(want.log.size()));
    expect_same_outcome(want, stop_and_play_out(plan, t_end, want.log[at].t_s));
    expect_same_outcome(want, stop_and_play_out(plan, t_end, want.log.back().t_s));
    // Stopped from inside a flip's own observer.
    if (want.link_downs > 0) {
      expect_same_outcome(want, stop_and_play_out(plan, t_end, 0.0, 1));
      expect_same_outcome(want, stop_and_play_out(plan, t_end, 0.0, 2 * want.link_downs - 1));
    }
  }
}

TEST(FaultInjector, PlayOutWithNothingArmedChangesNothing) {
  sim::Simulator sim;
  FaultInjector inj(sim, FaultPlan::none());
  inj.start(100.0);
  sim.run_until(100.0);
  inj.play_out();
  EXPECT_TRUE(inj.log().empty());
  EXPECT_TRUE(inj.link_up());
  EXPECT_TRUE(inj.gps_up());
}

}  // namespace
}  // namespace skyferry::fault
