#include "policy/api.h"

#include <algorithm>

namespace skyferry::policy {

const char* to_string(Objective o) noexcept {
  switch (o) {
    case Objective::kPaperUtility:
      return "paper-utility";
    case Objective::kJointSpeed:
      return "joint-speed";
  }
  return "?";
}

const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::kExact:
      return "exact";
    case Backend::kTable:
      return "table";
  }
  return "?";
}

core::Boundary classify_boundary(double d_m, double lo_m, double hi_m) noexcept {
  const double eps = 1e-6 * std::max(hi_m - lo_m, 1.0);
  // Degenerate hi <= lo intervals classify as transmit-now, matching the
  // precedence the exact solver always applied.
  if (d_m >= hi_m - eps) return core::Boundary::kTransmitNow;
  if (d_m <= lo_m + eps) return core::Boundary::kAtFloor;
  return core::Boundary::kInterior;
}

}  // namespace skyferry::policy
