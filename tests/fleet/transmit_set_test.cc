// Differential pin for the fleet's transmit-set maintenance: churny
// fleets whose per-mission snapshot digests were captured with the
// full re-bucket-and-sort rebuild (commit 998b789) and must not move.
// Arrivals, completions, battery failures and ferry crashes reshape the
// set every few sweeps; urgent-first and maximize-buffer admission rank
// the contended cells; a multi-link chaos run switches missions between
// wifi and non-wifi burst links and sends some closer (back to kFerry);
// a wifi-only chaos run re-ferries rows into another 2 cm cell within
// one sweep, so they land again before the rebuild that re-buckets them.
// Each scenario is also run at 2 and 8 threads against the same digest.
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/link_chaos.h"
#include "fleet/engine.h"
#include "link/multilink.h"
#include "support/fleet_digest.h"
#include "sim/rng.h"

namespace skyferry::fleet {
namespace {

using test_support::Digest;
using test_support::fold_snapshot;

/// What a run saw happen, so each scenario proves it exercises the
/// transitions the transmit set has to follow.
struct Churn {
  std::uint64_t digest{0};
  std::size_t completed{0};
  std::size_t failed{0};
  int wifi_to_other{0};    ///< kTransmit on wifi, later on a non-wifi link
  int other_to_wifi{0};
  int transmit_to_ferry{0};  ///< a closer retarget
  /// Re-ferry legs (a row that had landed, then ferried again) that
  /// landed within one sweep in another cell: the row must be
  /// re-bucketed although the rebuild after its retarget sees it in
  /// kTransmit again.
  int relanded_in_new_cell{0};
};

/// Steps to `horizon_s`, folding a snapshot every `every_s` simulated
/// seconds and watching per-mission link and phase transitions.
Churn drive(FleetEngine& eng, double horizon_s, double every_s) {
  Churn c;
  Digest d;
  const std::size_t n = eng.mission_count();
  std::vector<std::int32_t> link(n, -1);
  std::vector<Phase> phase(n);  // value-initialized: Phase{} is kFerry
  static_assert(Phase{} == Phase::kFerry);
  using Cell = std::pair<double, double>;
  const double cell_m = eng.config().cell_size_m;
  const auto cell_of = [&](std::size_t i) {
    const geo::Vec3 p = eng.position(static_cast<int>(i));
    return Cell{std::floor(p.x / cell_m), std::floor(p.y / cell_m)};
  };
  std::vector<Cell> cell(n);
  std::vector<double> arrived(n, 0.0);
  const bool multilink = eng.config().links != nullptr;
  const auto wifi = [&](std::int32_t j) {
    return eng.config().links->backend(static_cast<std::size_t>(j)).kind() ==
           link::BackendKind::kWifi80211n;
  };
  double next_snap = every_s;
  while (eng.now() + eng.config().dt_s <= horizon_s + 1e-12) {
    eng.step();
    for (std::size_t i = 0; i < n; ++i) {
      const MissionStatus st = eng.mission(static_cast<int>(i));
      if (phase[i] == Phase::kTransmit && st.phase == Phase::kFerry) ++c.transmit_to_ferry;
      const Cell now_cell = cell_of(i);
      if (phase[i] == Phase::kFerry && arrived[i] > 0.0 && st.arrived_t_s != arrived[i] &&
          now_cell != cell[i]) {
        ++c.relanded_in_new_cell;
      }
      cell[i] = now_cell;
      arrived[i] = st.arrived_t_s;
      if (multilink && link[i] >= 0 && st.burst_link >= 0 && st.burst_link != link[i]) {
        if (wifi(link[i]) && !wifi(st.burst_link)) ++c.wifi_to_other;
        if (!wifi(link[i]) && wifi(st.burst_link)) ++c.other_to_wifi;
      }
      phase[i] = st.phase;
      link[i] = st.burst_link;
    }
    if (eng.now() >= next_snap - 1e-9) {
      fold_snapshot(eng, d);
      next_snap += every_s;
    }
  }
  fold_snapshot(eng, d);
  const FleetTotals t = eng.totals();
  c.completed = t.completed;
  c.failed = t.failed;
  c.digest = d.h;
  return c;
}

/// Poisson arrivals into six-UAV receiver groups on a 500 m grid (the
/// fleet_wifi layout at test scale), with crashes, finite endurance and
/// mixed batch sizes so missions complete and fail throughout the run.
Churn run_wifi(SchedulerPolicy policy, int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.policy = policy;
  cfg.max_tx_per_cell = 2;
  cfg.battery_autonomy_s = 75.0;
  FleetEngine eng(cfg, 777);
  sim::Rng rng(4242);
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += rng.exponential(6.0);
    const int g = i / 6;
    MissionSpec spec;
    spec.receiver_pos = {500.0 * (g % 8), 500.0 * (g / 8), 10.0};
    spec.start_pos = spec.receiver_pos + geo::Vec3{rng.uniform(60.0, 240.0), 0.0, 0.0};
    spec.mdata_bytes = rng.uniform(1.0e6, 1.2e7);
    spec.rho_per_m = 2.0e-3;
    spec.spawn_t_s = t;
    spec.deadline_s = t + rng.uniform(20.0, 90.0);
    eng.add_mission(spec);
  }
  return drive(eng, 90.0, 5.0);
}

/// Four backends under the harsh chaos plan with re-election on. The
/// non-wifi links black out far more often than wifi, so missions leave
/// wifi, come back to it, and the fallback rung re-ferries them closer.
Churn run_chaos(int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.cell_size_m = 1.0e5;  // one contended cell: a stale member steals a slot
  cfg.max_tx_per_cell = 2;
  cfg.links = std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
      link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
      link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()});
  cfg.link_chaos = fault::LinkFaultPlan::harsh(4);
  cfg.link_chaos.links[0].blackout_rate_per_hour = 20.0;
  for (std::size_t j = 1; j < 4; ++j) cfg.link_chaos.links[j].blackout_rate_per_hour = 240.0;
  cfg.reelection.enabled = true;
  cfg.reelection.max_reelections = 4;
  FleetEngine eng(cfg, 20261017);
  for (int i = 0; i < 36; ++i) {
    MissionSpec spec;
    spec.receiver_pos = {2000.0 * (i / 6), 0.0, 10.0};
    spec.start_pos = spec.receiver_pos + geo::Vec3{150.0 + 150.0 * (i % 6), 0.0, 0.0};
    spec.mdata_bytes = (i % 4 == 0) ? 4.0e8 : 5.0e7 * (1 + i % 3);
    spec.rho_per_m = (i % 2 == 0) ? 1.0e-4 : 2.0e-3;
    spec.deadline_s = 150.0;
    spec.spawn_t_s = 0.7 * i;
    eng.add_mission(spec);
  }
  return drive(eng, 300.0, 10.0);
}

/// Wifi-only chaos with re-election on: every trigger takes the
/// fallback rung (there is no other link), and a tiny
/// ship_closer_fraction makes its ferry-closer leg shorter than one
/// sweep's flight. The row then lands again in the next kinematics
/// pass, before that sweep's rebuild, in another cell (cells are 2 cm
/// wide). Six missions per receiver hover at one d* point, so the cell
/// a re-landed row is bucketed in decides who is admitted.
Churn run_reland(int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.cell_size_m = 0.02;
  cfg.max_tx_per_cell = 2;
  cfg.link_chaos.links.resize(1);
  cfg.link_chaos.links[0].blackout_rate_per_hour = 120.0;
  cfg.link_chaos.links[0].blackout_mean_s = 30.0;
  cfg.reelection.enabled = true;
  cfg.reelection.max_reelections = 4;
  cfg.reelection.ship_closer_fraction = 0.002;
  FleetEngine eng(cfg, 90210);
  for (int i = 0; i < 48; ++i) {
    MissionSpec spec;
    spec.receiver_pos = {1000.0 * (i / 6), 0.0, 10.0};
    spec.start_pos = spec.receiver_pos + geo::Vec3{80.0, 0.0, 0.0};
    spec.mdata_bytes = 3.0e7;
    spec.rho_per_m = 1.0e-2;
    spec.deadline_s = 200.0;
    spec.spawn_t_s = 0.3 * i;
    eng.add_mission(spec);
  }
  return drive(eng, 240.0, 10.0);
}

void expect_pinned(const Churn& got, std::uint64_t want, const char* what) {
  EXPECT_EQ(got.digest, want) << what << ": digest 0x" << std::hex << got.digest;
}

// Every kPinned below was captured at commit 998b789, whose
// step_transfers re-bucketed and sorted the whole transmit set on each
// rebuild.
TEST(FleetTransmitSet, UrgentFirstChurnMatchesFullRebuild) {
  constexpr std::uint64_t kPinned = 0x4a17c3d12c8e1015ULL;
  const Churn one = run_wifi(SchedulerPolicy::kUrgentFirst, 1);
  EXPECT_GT(one.completed, 0u);
  EXPECT_GT(one.failed, 0u);
  expect_pinned(one, kPinned, "threads=1");
  expect_pinned(run_wifi(SchedulerPolicy::kUrgentFirst, 2), kPinned, "threads=2");
  expect_pinned(run_wifi(SchedulerPolicy::kUrgentFirst, 8), kPinned, "threads=8");
}

TEST(FleetTransmitSet, MaximizeBufferChurnMatchesFullRebuild) {
  constexpr std::uint64_t kPinned = 0x52faafa584504e5dULL;
  const Churn one = run_wifi(SchedulerPolicy::kMaximizeBuffer, 1);
  EXPECT_GT(one.completed, 0u);
  EXPECT_GT(one.failed, 0u);
  expect_pinned(one, kPinned, "threads=1");
  expect_pinned(run_wifi(SchedulerPolicy::kMaximizeBuffer, 2), kPinned, "threads=2");
  expect_pinned(run_wifi(SchedulerPolicy::kMaximizeBuffer, 8), kPinned, "threads=8");
}

TEST(FleetTransmitSet, ChaosLinkSwitchesMatchFullRebuild) {
  constexpr std::uint64_t kPinned = 0x5deae7e5d3608bc5ULL;
  const Churn one = run_chaos(1);
  EXPECT_GT(one.wifi_to_other, 0);
  EXPECT_GT(one.other_to_wifi, 0);
  EXPECT_GT(one.transmit_to_ferry, 0);
  expect_pinned(one, kPinned, "threads=1");
  expect_pinned(run_chaos(2), kPinned, "threads=2");
  expect_pinned(run_chaos(8), kPinned, "threads=8");
}

TEST(FleetTransmitSet, ReferryAcrossACellWithinOneSweepIsRebucketed) {
  constexpr std::uint64_t kPinned = 0x3e7ce6c7b2d984bfULL;
  const Churn one = run_reland(1);
  EXPECT_GT(one.relanded_in_new_cell, 0);
  expect_pinned(one, kPinned, "threads=1");
  expect_pinned(run_reland(2), kPinned, "threads=2");
  expect_pinned(run_reland(8), kPinned, "threads=8");
}

}  // namespace
}  // namespace skyferry::fleet
