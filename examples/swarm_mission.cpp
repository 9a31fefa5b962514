// Swarm mission on the fleet engine.
//
// Four quadrocopter scouts each sweep a sector of a 200x200 m area; one
// relay hovers at the center. The delayed-gratification planner picks
// each scout's rendezvous distance d*; the FleetEngine then flies every
// scout to its d* point and simulates its 802.11n exchanges, including
// DCF contention while deliveries overlap in the relay's shared cell.
#include <cstdio>
#include <string>
#include <vector>

#include "core/mission.h"
#include "fleet/engine.h"
#include "io/table.h"

int main() {
  using namespace skyferry;

  // Plan the mission analytically first (sector split + rendezvous).
  core::MissionConfig mcfg;
  mcfg.area_width_m = 200.0;
  mcfg.area_height_m = 200.0;
  mcfg.uav_count = 4;
  mcfg.rendezvous_d0_m = 100.0;
  const auto model = core::PaperLogThroughput::quadrocopter();
  const core::MissionPlanner planner(model, mcfg);
  const core::MissionPlan plan = planner.plan();
  std::printf("mission plan: %zu sectors, %.0f MB total, makespan %.0f s, %s\n",
              plan.sectors.size(), plan.total_data_mb, plan.makespan_s,
              plan.feasible ? "battery-feasible" : "INFEASIBLE");

  // Fly it on the fleet engine: one shared cell, no in-flight failures.
  fleet::FleetConfig fcfg;
  fcfg.cell_size_m = 1e4;
  fleet::FleetEngine eng(fcfg, 2026);

  const geo::Vec3 relay_pos{100.0, 100.0, 10.0};
  const auto sectors = ctrl::make_sector_grid(200.0, 200.0, 2, 2, 10.0);
  std::vector<double> planned_d;
  for (const auto& s : sectors) {
    const auto& dec = plan.sectors[static_cast<std::size_t>(s.index)].rounds[0].decision;
    fleet::MissionSpec spec;
    spec.start_pos = s.center();
    spec.receiver_pos = relay_pos;
    spec.fixed_target_distance_m = dec.strategy.target_distance_m;
    spec.mdata_bytes = 26 * 0.39e6;  // ~10 MB per scout for a quick demo
    spec.rho_per_m = 0.0;
    // Stagger the departures slightly (the contention ablation's lesson).
    spec.spawn_t_s = 25.0 + 5.0 * static_cast<double>(planned_d.size());
    eng.add_mission(spec);
    planned_d.push_back(dec.strategy.target_distance_m);
  }
  eng.run_until(600.0);

  io::Table t("swarm delivery results");
  t.columns({"scout", "planned d_m", "achieved d_m", "done t_s", "loss_%", "complete"});
  bool all_ok = true;
  for (std::size_t i = 0; i < planned_d.size(); ++i) {
    const fleet::MissionStatus st = eng.mission(static_cast<int>(i));
    const bool done = st.phase == fleet::Phase::kDone;
    const double loss =
        st.mpdus_attempted > 0
            ? 1.0 - static_cast<double>(st.mpdus_delivered) / static_cast<double>(st.mpdus_attempted)
            : 0.0;
    t.add_row("scout" + std::to_string(i),
              {planned_d[i], geo::distance(eng.position(static_cast<int>(i)), relay_pos),
               done ? st.completed_t_s : -1.0, loss * 100.0, done ? 1.0 : 0.0});
    all_ok = all_ok && done;
  }
  t.print();
  std::printf("%s\n", all_ok ? "all batches delivered" : "INCOMPLETE DELIVERIES");
  return all_ok ? 0 : 1;
}
