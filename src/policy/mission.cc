#include "core/mission.h"

#include <algorithm>
#include <cmath>

namespace skyferry::core {

SectorMissionPlan MissionPlanner::plan_sector(const ctrl::Sector& sector, int index) const {
  SectorMissionPlan sp;
  sp.sector_index = index;
  sp.battery_time_budget_s = cfg_.platform.battery_autonomy_s;

  const auto sweep = ctrl::estimate_sweep(sector, cfg_.camera, cfg_.platform.cruise_speed_mps);
  const auto imaging = ctrl::plan_sector_imaging(cfg_.camera, sector.area_m2(),
                                                 cfg_.survey_altitude_m);

  const int rounds = std::max(cfg_.delivery_rounds_per_sector, 1);
  const double round_bytes = imaging.batch.total_bytes() / rounds;
  const double round_sweep_s = sweep.duration_s / rounds;

  const uav::FailureModel failure(cfg_.rho_per_m);
  const DelayedGratificationPlanner planner(model_, failure);

  double t = 0.0;
  double p_all = 1.0;
  for (int r = 0; r < rounds; ++r) {
    RendezvousPlan rp;
    rp.sector_index = index;
    rp.round = r;
    rp.batch_bytes = round_bytes;
    rp.sweep_time_s = round_sweep_s;

    DeliveryParams params{cfg_.rendezvous_d0_m, cfg_.platform.cruise_speed_mps, round_bytes,
                          cfg_.min_distance_m};
    rp.decision = planner.decide(params);

    // Round trip: ferry to the transmit position, transmit, fly back to
    // resume the sweep (the re-positioning cost Sec. 5 points at).
    const double ship_there =
        (cfg_.rendezvous_d0_m - rp.decision.strategy.target_distance_m) /
        cfg_.platform.cruise_speed_mps;
    rp.round_trip_time_s = rp.decision.expected_delay_s + ship_there;  // there + tx + back
    t += rp.sweep_time_s + rp.round_trip_time_s;
    p_all *= rp.decision.delivery_probability;
    sp.rounds.push_back(rp);
  }
  sp.total_time_s = t;
  sp.battery_feasible = t <= sp.battery_time_budget_s;
  sp.mission_delivery_probability = p_all;
  return sp;
}

std::vector<ctrl::Sector> MissionPlanner::make_grid() const {
  // Near-square grid with uav_count sectors.
  int nx = std::max(1, static_cast<int>(std::round(std::sqrt(cfg_.uav_count))));
  while (cfg_.uav_count % nx != 0) --nx;
  const int ny = cfg_.uav_count / nx;
  return ctrl::make_sector_grid(cfg_.area_width_m, cfg_.area_height_m, nx, ny,
                                cfg_.survey_altitude_m);
}

MissionPlan MissionPlanner::plan() const {
  MissionPlan plan;
  const auto sectors = make_grid();

  plan.feasible = true;
  for (const auto& s : sectors) {
    SectorMissionPlan sp = plan_sector(s, s.index);
    plan.makespan_s = std::max(plan.makespan_s, sp.total_time_s);
    for (const auto& r : sp.rounds) plan.total_data_mb += r.batch_bytes / 1e6;
    plan.feasible = plan.feasible && sp.battery_feasible;
    plan.sectors.push_back(std::move(sp));
  }
  return plan;
}

}  // namespace skyferry::core
