// Whole-mission planning: sectors, sweeps, and repeated rendezvous.
//
// The paper notes that "collection and subsequent communication can
// happen multiple times before the mission ends" (Sec. 2.2) and leaves
// holistic mission/communication planning as future work (Sec. 5).
// MissionPlanner does the tractable version: decompose the area into
// per-UAV sectors, estimate each sweep, run the delayed-gratification
// decision for every delivery round, and account battery feasibility.
#pragma once

#include <string>
#include <vector>

#include "core/planner.h"
#include "ctrl/sector.h"
#include "uav/platform.h"

namespace skyferry::core {

struct MissionConfig {
  double area_width_m{200.0};
  double area_height_m{200.0};
  int uav_count{2};                 ///< scouts, one sector each
  double survey_altitude_m{10.0};
  ctrl::CameraModel camera{};
  uav::PlatformSpec platform{uav::PlatformSpec::arducopter()};
  double rho_per_m{2.46e-4};
  /// Distance to the collector/relay when each batch is ready.
  double rendezvous_d0_m{100.0};
  double min_distance_m{20.0};
  /// Deliver after every sweep of this many sub-batches (1 = deliver the
  /// whole sector's data at once; k splits the sector into k rounds).
  int delivery_rounds_per_sector{1};
};

/// One delivery round of one sector.
struct RendezvousPlan {
  int sector_index{0};
  int round{0};
  double batch_bytes{0.0};
  double sweep_time_s{0.0};     ///< collection time for this round
  Decision decision{};          ///< where/how to transmit
  double round_trip_time_s{0.0};  ///< ferry out + transmit + return to sector
};

struct SectorMissionPlan {
  int sector_index{0};
  std::vector<RendezvousPlan> rounds;
  double total_time_s{0.0};
  double battery_time_budget_s{0.0};
  bool battery_feasible{false};
  /// Probability that every round's approach survives (independent
  /// exponential legs multiply).
  double mission_delivery_probability{1.0};
};

struct MissionPlan {
  std::vector<SectorMissionPlan> sectors;
  double makespan_s{0.0};  ///< slowest sector's total time
  double total_data_mb{0.0};
  bool feasible{false};
};

class MissionPlanner {
 public:
  /// The throughput model must outlive the planner.
  MissionPlanner(const ThroughputModel& model, MissionConfig cfg) noexcept
      : model_(model), cfg_(cfg) {}

  [[nodiscard]] MissionPlan plan() const;

  [[nodiscard]] const MissionConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] std::vector<ctrl::Sector> make_grid() const;
  [[nodiscard]] SectorMissionPlan plan_sector(const ctrl::Sector& sector, int index) const;

  const ThroughputModel& model_;
  MissionConfig cfg_;
};

}  // namespace skyferry::core
