#include "phy/pathloss.h"

#include <algorithm>
#include <cmath>

namespace skyferry::phy {

double AerialSnrModel::median_snr_db(double distance_m) const noexcept {
  const double d = std::max(distance_m, 1.0);
  return a_ - b_ * std::log2(d);
}

}  // namespace skyferry::phy
