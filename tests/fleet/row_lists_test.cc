// Pins the fleet engine's row-list transitions: the sweeps visit only
// the rows a phase can touch (ferrying rows for kinematics, live rows
// for the battery drain, transmitting rows for the transmit set, rows
// flagged this step for re-election), so every way a row enters or
// leaves those lists is driven here and folded into a snapshot digest
// that was captured while every sweep still scanned all rows:
//   - zero-length legs that land on the sweep that spawns them;
//   - ferry crashes and battery failures in ferry and in transmit;
//   - re-election re-ferries (commit and fallback) that land again and
//     re-trigger;
//   - rows whose background trickle covers the batch, so they arrive
//     and complete in one sweep.
// Every scenario runs at 1, 2 and 8 threads against one digest.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fault/link_chaos.h"
#include "fleet/engine.h"
#include "link/multilink.h"
#include "support/fleet_digest.h"

namespace skyferry::fleet {
namespace {

using test_support::Digest;
using test_support::fold_snapshot;

/// The list transitions a run went through, so each scenario proves it
/// exercises what it pins.
struct Seen {
  std::uint64_t digest{0};
  int first_sweep_arrivals{0};  ///< landed on the sweep that spawned them
  int ferry_crashes{0};
  int battery_in_ferry{0};
  int battery_in_transmit{0};
  int commit_referries{0};    ///< re-ferry onto another link, landed again
  int fallback_referries{0};  ///< re-ferry on the same link, landed again
  int retriggers{0};          ///< re-election processed after a re-landing
  int trickle_completions{0};  ///< kFerry -> kDone inside one sweep
};

/// Steps to `horizon_s`, folding a snapshot every second of simulated
/// time and classifying each row's transition after every sweep.
Seen drive(FleetEngine& eng, double horizon_s) {
  Seen seen;
  Digest d;
  const std::size_t n = eng.mission_count();
  const double autonomy = eng.config().battery_autonomy_s;
  std::vector<MissionStatus> prev(n);
  for (std::size_t i = 0; i < n; ++i) prev[i] = eng.mission(static_cast<int>(i));
  std::vector<std::int32_t> referry_link(n, -2);  ///< link when it left kTransmit
  std::vector<std::uint8_t> relanded(n, 0);
  double next_snap = 1.0;
  while (eng.now() + eng.config().dt_s <= horizon_s + 1e-12) {
    const double t0 = eng.now();
    eng.step();
    for (std::size_t i = 0; i < n; ++i) {
      const MissionStatus st = eng.mission(static_cast<int>(i));
      const MissionStatus& was = prev[i];
      const bool spawned_now = st.spawn_t_s <= t0 && st.spawn_t_s > t0 - eng.config().dt_s;
      if (spawned_now && st.phase != Phase::kFerry && st.arrived_t_s == t0) {
        ++seen.first_sweep_arrivals;
      }
      if (was.phase == Phase::kFerry && st.phase == Phase::kFailed) {
        if (eng.now() - st.spawn_t_s >= autonomy) {
          ++seen.battery_in_ferry;
        } else {
          ++seen.ferry_crashes;
        }
      }
      if (was.phase == Phase::kTransmit && st.phase == Phase::kFailed) ++seen.battery_in_transmit;
      if (was.phase == Phase::kTransmit && st.phase == Phase::kFerry) {
        referry_link[i] = was.burst_link;
      }
      if (referry_link[i] != -2 && st.phase != Phase::kFerry &&
          st.arrived_t_s != was.arrived_t_s) {
        ++(st.burst_link == referry_link[i] ? seen.fallback_referries : seen.commit_referries);
        referry_link[i] = -2;
        relanded[i] = 1;
      }
      if (relanded[i] && st.reelections > was.reelections) {
        ++seen.retriggers;
        relanded[i] = 0;
      }
      if (was.phase == Phase::kFerry && st.phase == Phase::kDone && st.trickle_bytes > 0 &&
          st.completed_t_s == st.arrived_t_s) {
        ++seen.trickle_completions;
      }
      prev[i] = st;
    }
    if (eng.now() >= next_snap - 1e-9) {
      fold_snapshot(eng, d);
      next_snap += 1.0;
    }
  }
  fold_snapshot(eng, d);
  seen.digest = d.h;
  return seen;
}

/// The legacy 802.11n path with a 40 s endurance. Rows cycle through
/// five kinds: a fixed target at the spawn point, a spawn on the
/// receiver (d0 = 0), a leg too long for the battery, a leg under a
/// high failure rate, and a batch too big to ship before the battery
/// runs out.
Seen run_legs(int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.battery_autonomy_s = 40.0;
  cfg.max_tx_per_cell = 2;
  FleetEngine eng(cfg, 5150);
  for (int i = 0; i < 1500; ++i) {
    MissionSpec spec;
    spec.receiver_pos = {300.0 * (i / 5), 0.0, 10.0};
    spec.start_pos = spec.receiver_pos + geo::Vec3{120.0, 0.0, 0.0};
    spec.mdata_bytes = 2.0e6;
    spec.rho_per_m = 0.0;
    spec.spawn_t_s = 0.014 * i;
    switch (i % 5) {
      case 0: spec.fixed_target_distance_m = 1.0e4; break;
      case 1: spec.start_pos = spec.receiver_pos; break;
      case 2: spec.start_pos = spec.receiver_pos + geo::Vec3{900.0, 0.0, 0.0}; break;
      case 3: spec.rho_per_m = 2.0e-2; break;
      default: spec.mdata_bytes = 1.0e9; break;
    }
    eng.add_mission(spec);
  }
  return drive(eng, 90.0);
}

/// Four backends under the harsh chaos plan, re-election on with a
/// deep cap: commits move rows onto closer links, the fallback rung
/// ferries them closer on the same link, and both land and trip again.
Seen run_referry(int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.cell_size_m = 1.0e5;  // one contended cell
  cfg.max_tx_per_cell = 2;
  cfg.links = std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
      link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
      link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()});
  cfg.link_chaos = fault::LinkFaultPlan::harsh(4);
  cfg.link_chaos.links[0].blackout_rate_per_hour = 40.0;
  for (std::size_t j = 1; j < 4; ++j) cfg.link_chaos.links[j].blackout_rate_per_hour = 240.0;
  cfg.reelection.enabled = true;
  cfg.reelection.max_reelections = 6;
  FleetEngine eng(cfg, 8675309);
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
  return drive(eng, 300.0);
}

/// Four backends without chaos: long legs with small batches, so the
/// other links' background trickle during the ferry covers whole
/// batches and those rows complete on the sweep they land.
Seen run_trickle(int threads) {
  FleetConfig cfg;
  cfg.threads = threads;
  cfg.links = std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
      link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
      link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()});
  FleetEngine eng(cfg, 1234);
  for (int i = 0; i < 40; ++i) {
    MissionSpec spec;
    spec.receiver_pos = {3000.0 * (i / 4), 0.0, 10.0};
    spec.start_pos = spec.receiver_pos + geo::Vec3{400.0 + 250.0 * (i % 4), 0.0, 0.0};
    spec.mdata_bytes = 1.0e6 * (1 + i % 7);
    spec.rho_per_m = 1.0e-4;
    spec.spawn_t_s = 0.5 * i;
    eng.add_mission(spec);
  }
  return drive(eng, 200.0);
}

void expect_pinned(const Seen& got, std::uint64_t want, const char* what) {
  EXPECT_EQ(got.digest, want) << what << ": digest 0x" << std::hex << got.digest;
}

// Every kPinned below was captured while each sweep scanned all rows.
TEST(FleetRowLists, ZeroLegsCrashesAndBatteryFailuresMatchFullScans) {
  constexpr std::uint64_t kPinned = 0x824244a8b678c07eULL;
  const Seen one = run_legs(1);
  EXPECT_GT(one.first_sweep_arrivals, 0);
  EXPECT_GT(one.ferry_crashes, 0);
  EXPECT_GT(one.battery_in_ferry, 0);
  EXPECT_GT(one.battery_in_transmit, 0);
  expect_pinned(one, kPinned, "threads=1");
  expect_pinned(run_legs(2), kPinned, "threads=2");
  expect_pinned(run_legs(8), kPinned, "threads=8");
}

TEST(FleetRowLists, ReelectionReferriesLandAndRetriggerLikeFullScans) {
  constexpr std::uint64_t kPinned = 0x47dcf82e74a207c9ULL;
  const Seen one = run_referry(1);
  EXPECT_GT(one.commit_referries, 0);
  EXPECT_GT(one.fallback_referries, 0);
  EXPECT_GT(one.retriggers, 0);
  expect_pinned(one, kPinned, "threads=1");
  expect_pinned(run_referry(2), kPinned, "threads=2");
  expect_pinned(run_referry(8), kPinned, "threads=8");
}

TEST(FleetRowLists, TrickleCoveredRowsCompleteOnArrivalLikeFullScans) {
  constexpr std::uint64_t kPinned = 0xb3509bf6926cb40bULL;
  const Seen one = run_trickle(1);
  EXPECT_GT(one.trickle_completions, 0);
  EXPECT_GT(one.first_sweep_arrivals, 0);
  expect_pinned(one, kPinned, "threads=1");
  expect_pinned(run_trickle(2), kPinned, "threads=2");
  expect_pinned(run_trickle(8), kPinned, "threads=8");
}

}  // namespace
}  // namespace skyferry::fleet
