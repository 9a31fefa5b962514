// The decision facade a mission controller calls: given where the peer
// is, how much data is carried and the platform's failure rate, decide
// *now or later* — return the optimal transmit distance, the strategy to
// fly, and the expected cost/benefit breakdown.
#pragma once

#include "core/optimizer.h"
#include "core/scenario.h"
#include "core/strategy.h"

namespace skyferry::core {

struct Decision {
  OptimizeResult opt;
  StrategySpec strategy;
  /// Expected delivery probability if the plan is followed (= discount).
  double delivery_probability{0.0};
  /// Expected total delay [s] (ship + transmit at d_opt).
  double expected_delay_s{0.0};
  /// Delay of naive transmit-now for comparison [s].
  double transmit_now_delay_s{0.0};
  /// Relative delay saving of the chosen plan vs transmit-now (>= 0).
  double delay_saving_fraction{0.0};
};

class DelayedGratificationPlanner {
 public:
  /// The throughput model must outlive the planner.
  DelayedGratificationPlanner(const ThroughputModel& model, uav::FailureModel failure,
                              OptimizeOptions opt = {}) noexcept
      : model_(model), failure_(failure), opt_(opt) {}

  /// Decide for a delivery: where to transmit and how.
  [[nodiscard]] Decision decide(const DeliveryParams& params) const;

  /// Convenience: decide for a whole scenario preset.
  [[nodiscard]] Decision decide(const Scenario& s) const { return decide(s.delivery_params()); }

 private:
  const ThroughputModel& model_;
  uav::FailureModel failure_;
  OptimizeOptions opt_;
};

}  // namespace skyferry::core
