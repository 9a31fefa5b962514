// Time-stamped position traces. Used to record simulated flights (the
// analogue of the GPS traces in the paper's Figure 4) and to replay them
// into the link simulator.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/geodesy.h"
#include "geo/vec3.h"

namespace skyferry::geo {

/// One sample of a flight trace.
struct TrajectorySample {
  double t_s{0.0};
  Vec3 pos;       ///< ENU position [m]
  Vec3 vel;       ///< ENU velocity [m/s]
};

/// An append-only, time-ordered flight trace with interpolating lookup.
class Trajectory {
 public:
  /// Append a sample; `t_s` must be >= the last appended time.
  void push(const TrajectorySample& s);

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] const std::vector<TrajectorySample>& samples() const noexcept { return samples_; }

  [[nodiscard]] double start_time() const noexcept;
  [[nodiscard]] double end_time() const noexcept;
  [[nodiscard]] double duration() const noexcept;

  /// Linear interpolation of position at time t (clamped to the trace span).
  /// Precondition: !empty().
  [[nodiscard]] Vec3 position_at(double t_s) const noexcept;

  /// Total path length [m] (sum of segment lengths).
  [[nodiscard]] double path_length() const noexcept;

  /// Convert every sample to geodetic coordinates in `frame`.
  [[nodiscard]] std::vector<GeoPoint> to_geo(const LocalFrame& frame) const;

 private:
  /// Index of the last sample with time <= t (0 if t precedes the trace).
  [[nodiscard]] std::size_t lower_index(double t_s) const noexcept;

  std::vector<TrajectorySample> samples_;
};

}  // namespace skyferry::geo
