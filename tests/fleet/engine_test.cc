#include "fleet/engine.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace skyferry::fleet {
namespace {

/// A deterministic little constellation: `n` missions spawning on a ring
/// around one receiver, with mixed ranges and a failure rate.
void add_ring(FleetEngine& eng, int n, double rho = 0.0) {
  for (int i = 0; i < n; ++i) {
    MissionSpec spec;
    const double angle = 2.0 * M_PI * i / n;
    const double range = 60.0 + 40.0 * ((i * 7) % 5);
    spec.start_pos = {range * std::cos(angle), range * std::sin(angle), 10.0};
    spec.receiver_pos = {0.0, 0.0, 10.0};
    spec.mdata_bytes = 2.0e6 + 1.0e6 * (i % 3);
    spec.rho_per_m = rho;
    spec.spawn_t_s = 0.1 * (i % 4);
    eng.add_mission(spec);
  }
}

TEST(FleetEngine, MissionLifecycleCompletes) {
  FleetConfig cfg;
  FleetEngine eng(cfg, 42);
  MissionSpec spec;
  spec.start_pos = {100.0, 0.0, 10.0};
  spec.receiver_pos = {0.0, 0.0, 10.0};
  spec.mdata_bytes = 2.0e6;
  spec.rho_per_m = 0.0;
  const int id = eng.add_mission(spec);

  eng.run_until(300.0);
  const MissionStatus st = eng.mission(id);
  EXPECT_EQ(st.phase, Phase::kDone);
  EXPECT_GE(st.d_star_m, cfg.scenario.min_distance_m);
  EXPECT_LE(st.d_star_m, 100.0);
  EXPECT_GT(st.utility, 0.0);
  EXPECT_EQ(st.bytes_delivered, st.bytes_total);
  EXPECT_GT(st.completed_t_s, st.arrived_t_s);
  EXPECT_GT(st.mpdus_attempted, st.mpdus_delivered);  // some loss existed

  // The UAV parked on the start->receiver line at distance d*.
  const geo::Vec3 p = eng.position(id);
  EXPECT_NEAR(geo::distance(p, spec.receiver_pos), st.d_star_m, 1e-9);
}

TEST(FleetEngine, DecisionMatchesServiceAnswer) {
  FleetConfig cfg;
  FleetEngine eng(cfg, 7);
  MissionSpec spec;
  spec.start_pos = {cfg.scenario.d0_m, 0.0, 0.0};
  spec.receiver_pos = {0.0, 0.0, 0.0};
  const int id = eng.add_mission(spec);
  eng.run_until(cfg.dt_s);

  policy::Query q;
  q.d0_m = cfg.scenario.d0_m;
  q.speed_mps = cfg.scenario.speed_mps;
  q.mdata_bytes = static_cast<double>(eng.mission(id).bytes_total);
  q.min_distance_m = cfg.scenario.min_distance_m;
  q.rho_per_m = cfg.scenario.rho_per_m;
  const policy::Decision dec = eng.service().decide_one(q);
  EXPECT_DOUBLE_EQ(eng.mission(id).d_star_m, dec.d_opt_m);
  EXPECT_DOUBLE_EQ(eng.mission(id).utility, dec.utility);
}

TEST(FleetEngine, FixedTargetBypassesDecision) {
  FleetEngine eng(FleetConfig{}, 3);
  MissionSpec spec;
  spec.start_pos = {80.0, 0.0, 10.0};
  spec.receiver_pos = {0.0, 0.0, 10.0};
  spec.fixed_target_distance_m = 35.0;
  spec.rho_per_m = 0.0;
  const int id = eng.add_mission(spec);
  eng.run_until(30.0);
  EXPECT_DOUBLE_EQ(eng.mission(id).d_star_m, 35.0);
  EXPECT_DOUBLE_EQ(eng.mission(id).utility, 0.0);
  EXPECT_EQ(eng.mission(id).phase, Phase::kTransmit);
  EXPECT_NEAR(geo::distance(eng.position(id), spec.receiver_pos), 35.0, 1e-9);
}

TEST(FleetEngine, CertainFailureNeverDelivers) {
  FleetConfig cfg;
  FleetEngine eng(cfg, 5);
  MissionSpec spec;
  spec.start_pos = {200.0, 0.0, 10.0};
  spec.receiver_pos = {0.0, 0.0, 10.0};
  spec.rho_per_m = 10.0;  // mean failure distance 0.1 m: dies on the ferry leg
  spec.fixed_target_distance_m = 20.0;
  const int id = eng.add_mission(spec);
  eng.run_until(120.0);
  EXPECT_EQ(eng.mission(id).phase, Phase::kFailed);
  EXPECT_EQ(eng.mission(id).bytes_delivered, 0u);
  EXPECT_EQ(eng.totals().failed, 1u);
}

TEST(FleetEngine, BatteryExhaustionFailsTheMission) {
  FleetConfig cfg;
  cfg.battery_autonomy_s = 5.0;
  FleetEngine eng(cfg, 6);
  MissionSpec spec;
  spec.start_pos = {400.0, 0.0, 10.0};  // ~89 s of ferrying at 4.5 m/s
  spec.receiver_pos = {0.0, 0.0, 10.0};
  spec.rho_per_m = 0.0;
  const int id = eng.add_mission(spec);
  eng.run_until(30.0);
  EXPECT_EQ(eng.mission(id).phase, Phase::kFailed);
}

TEST(FleetEngine, DeadlineAccountingFreezesLateBytes) {
  FleetConfig cfg;
  FleetEngine eng(cfg, 11);
  MissionSpec spec;
  spec.start_pos = {40.0, 0.0, 10.0};
  spec.receiver_pos = {0.0, 0.0, 10.0};
  spec.fixed_target_distance_m = 40.0;  // transmit from the spawn point
  spec.rho_per_m = 0.0;
  spec.mdata_bytes = 50.0e6;
  spec.deadline_s = 3.0;
  const int id = eng.add_mission(spec);
  eng.run_until(20.0);
  const MissionStatus st = eng.mission(id);
  EXPECT_GT(st.bytes_delivered, st.bytes_by_deadline);  // kept going after 3 s
  EXPECT_GT(st.bytes_by_deadline, 0u);                  // but some made it in time
}

TEST(FleetEngine, TotalsAddUp) {
  FleetEngine eng(FleetConfig{}, 9);
  add_ring(eng, 24, 1e-3);
  eng.run_until(200.0);
  const FleetTotals t = eng.totals();
  EXPECT_EQ(t.missions, 24u);
  EXPECT_EQ(t.ferrying + t.transmitting + t.completed + t.failed, 24u);
  EXPECT_GT(t.completed, 0u);
  EXPECT_GT(t.failed, 0u);  // rho 1e-3 over 40+ m legs kills some
  EXPECT_GT(t.bytes_delivered, 0u);
  EXPECT_GT(t.mean_completion_s, 0.0);
}

// --- Hovering-pair link behaviours ---------------------------------------

/// A mission hovering `distance_m` from its receiver at (0, y).
MissionSpec hover_at(double distance_m, double y, double mdata_bytes) {
  MissionSpec spec;
  spec.start_pos = {distance_m, y, 10.0};
  spec.receiver_pos = {0.0, y, 10.0};
  spec.fixed_target_distance_m = distance_m;
  spec.mdata_bytes = mdata_bytes;
  spec.rho_per_m = 0.0;
  return spec;
}

TEST(FleetEngine, ContentionSlowsParallelTransfers) {
  auto makespan = [](bool parallel) {
    FleetEngine eng(FleetConfig{}, 5);  // both pairs fall in one 200 m cell
    eng.add_mission(hover_at(30.0, 0.0, 15.0e6));
    if (parallel) eng.add_mission(hover_at(30.0, 50.0, 15.0e6));
    eng.run_until(900.0);
    double end = 0.0;
    for (int i = 0; i < static_cast<int>(eng.mission_count()); ++i) {
      EXPECT_EQ(eng.mission(i).phase, Phase::kDone);
      end = std::max(end, eng.mission(i).completed_t_s);
    }
    return end;
  };
  const double alone = makespan(false);
  const double shared = makespan(true);
  EXPECT_GT(shared, alone * 1.5);  // DCF sharing costs more than a fair split
}

TEST(FleetEngine, CloserTransferFinishesFaster) {
  auto time_at = [](double d) {
    FleetEngine eng(FleetConfig{}, 3);
    eng.add_mission(hover_at(d, 0.0, 20.0e6));
    eng.run_until(600.0);
    const MissionStatus st = eng.mission(0);
    return st.phase == Phase::kDone ? st.completed_t_s : 1e9;
  };
  EXPECT_LT(time_at(25.0), time_at(70.0));
}

TEST(FleetEngine, OutOfRangeTransferStallsWithoutSpinning) {
  FleetConfig cfg;
  FleetEngine eng(cfg, 6);
  eng.add_mission(hover_at(400.0, 0.0, 5.0e6));
  eng.run_until(30.0);
  const MissionStatus st = eng.mission(0);
  EXPECT_NE(st.phase, Phase::kDone);
  EXPECT_LT(static_cast<double>(st.bytes_delivered), 0.2 * static_cast<double>(st.bytes_total));
  // The MCS-0 stall backoff bounds the attempts: at most one full
  // aggregate per stall_retry_s, where spinning would attempt thousands.
  EXPECT_LT(static_cast<double>(st.mpdus_attempted),
            30.0 / cfg.stall_retry_s * cfg.ampdu.max_subframes);
}

// --- Determinism suite (ISSUE satellite 4) -------------------------------

struct Snapshot {
  std::vector<geo::Vec3> pos;
  std::vector<std::uint64_t> delivered;
  std::vector<double> completed_t;
  std::vector<Phase> phase;

  static Snapshot take(FleetEngine& eng) {
    Snapshot s;
    for (int i = 0; i < static_cast<int>(eng.mission_count()); ++i) {
      const MissionStatus st = eng.mission(i);
      s.pos.push_back(eng.position(i));
      s.delivered.push_back(st.bytes_delivered);
      s.completed_t.push_back(st.completed_t_s);
      s.phase.push_back(st.phase);
    }
    return s;
  }
};

void expect_bit_identical(const Snapshot& a, const Snapshot& b, const char* what) {
  ASSERT_EQ(a.pos.size(), b.pos.size());
  for (std::size_t i = 0; i < a.pos.size(); ++i) {
    // EXPECT_EQ on doubles: bit-identical, not merely close.
    EXPECT_EQ(a.pos[i].x, b.pos[i].x) << what << " uav " << i;
    EXPECT_EQ(a.pos[i].y, b.pos[i].y) << what << " uav " << i;
    EXPECT_EQ(a.pos[i].z, b.pos[i].z) << what << " uav " << i;
    EXPECT_EQ(a.delivered[i], b.delivered[i]) << what << " uav " << i;
    EXPECT_EQ(a.completed_t[i], b.completed_t[i]) << what << " uav " << i;
    EXPECT_EQ(a.phase[i], b.phase[i]) << what << " uav " << i;
  }
}

Snapshot run_fleet(int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.max_tx_per_cell = 2;  // force scheduler decisions into the mix
  FleetEngine eng(cfg, 2024);
  add_ring(eng, 300, 5e-4);
  eng.run_until(90.0);
  return Snapshot::take(eng);
}

TEST(FleetDeterminism, BitIdenticalAcrossThreadCounts) {
  const Snapshot one = run_fleet(1);
  const Snapshot two = run_fleet(2);
  const Snapshot eight = run_fleet(8);
  expect_bit_identical(one, two, "threads=2");
  expect_bit_identical(one, eight, "threads=8");
}

// --- Scheduler-policy outcome (ISSUE acceptance) -------------------------

double deadline_utility(SchedulerPolicy policy) {
  FleetConfig cfg;
  cfg.policy = policy;
  cfg.max_tx_per_cell = 1;  // one contended cell: admission order decides fates
  cfg.cell_size_m = 1e6;
  FleetEngine eng(cfg, 77);
  for (int i = 0; i < 6; ++i) {
    MissionSpec spec;
    spec.start_pos = {30.0, static_cast<double>(i), 10.0};
    spec.receiver_pos = {0.0, static_cast<double>(i), 10.0};
    spec.fixed_target_distance_m = 30.0;
    spec.rho_per_m = 0.0;
    spec.mdata_bytes = 8.0e6;
    // Arrival order (spawn order) runs *against* urgency: the earliest
    // arrivals have the latest deadlines, so FIFO serves the relaxed
    // missions first and starves the urgent ones.
    spec.spawn_t_s = 0.05 * i;
    spec.deadline_s = 20.0 - 3.0 * i;
    eng.add_mission(spec);
  }
  eng.run_until(40.0);
  return eng.totals().deadline_weighted_utility;
}

TEST(FleetScheduler, UrgentFirstBeatsFifoOnDeadlineUtility) {
  const double fifo = deadline_utility(SchedulerPolicy::kFifo);
  const double urgent = deadline_utility(SchedulerPolicy::kUrgentFirst);
  EXPECT_GT(urgent, fifo);
  EXPECT_GT(urgent, 0.0);
}

}  // namespace
}  // namespace skyferry::fleet
