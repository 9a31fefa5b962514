#include "core/planner.h"

#include <algorithm>

#include "core/delay.h"
#include "core/utility.h"

namespace skyferry::core {

Decision DelayedGratificationPlanner::decide(const DeliveryParams& params) const {
  Decision dec;
  const CommDelayModel delay(model_, params);
  dec.opt = optimize(UtilityFunction(delay, failure_), opt_);

  dec.strategy.kind = dec.opt.boundary == Boundary::kTransmitNow
                          ? StrategyKind::kTransmitNow
                          : StrategyKind::kShipThenTransmit;
  dec.strategy.target_distance_m = dec.opt.d_opt_m;

  dec.delivery_probability = dec.opt.discount;
  dec.expected_delay_s = dec.opt.cdelay_s;
  dec.transmit_now_delay_s = delay.cdelay_s(params.d0_m);
  if (dec.transmit_now_delay_s > 0.0 &&
      dec.transmit_now_delay_s != CommDelayModel::kInfiniteDelay) {
    dec.delay_saving_fraction =
        std::max(0.0, 1.0 - dec.expected_delay_s / dec.transmit_now_delay_s);
  } else if (dec.expected_delay_s != CommDelayModel::kInfiniteDelay) {
    // Transmit-now is impossible (out of range) but the plan delivers.
    dec.delay_saving_fraction = 1.0;
  }
  return dec;
}

}  // namespace skyferry::core
