// Geodesic helpers: Haversine great-circle distance (the paper computes
// UAV-to-UAV distance by "applying the Haversine formula to GPS
// coordinates", Sec. 3.1) and conversions between WGS-84 lat/lon and a
// local East-North-Up (ENU) tangent frame.
#pragma once

#include "geo/vec3.h"

namespace skyferry::geo {

/// Mean Earth radius [m], the value conventionally used with Haversine.
inline constexpr double kEarthRadiusM = 6371000.0;

inline constexpr double kPi = 3.14159265358979323846;

[[nodiscard]] constexpr double deg2rad(double deg) noexcept { return deg * kPi / 180.0; }
[[nodiscard]] constexpr double rad2deg(double rad) noexcept { return rad * 180.0 / kPi; }

/// A WGS-84 geodetic coordinate. Altitude is meters above the reference
/// surface (we do not model the geoid; all experiments are local-scale).
struct GeoPoint {
  double lat_deg{0.0};
  double lon_deg{0.0};
  double alt_m{0.0};
};

/// Great-circle ground distance [m] between two geodetic points
/// (Haversine formula; altitude is ignored).
[[nodiscard]] double haversine_m(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Local tangent-plane converter anchored at `origin`. Valid for the
/// hundreds-of-meters scales of the paper's field tests (equirectangular
/// approximation; error < 1e-4 relative at 1 km).
class LocalFrame {
 public:
  explicit LocalFrame(const GeoPoint& origin) noexcept;

  [[nodiscard]] const GeoPoint& origin() const noexcept { return origin_; }

  /// Geodetic -> local ENU [m].
  [[nodiscard]] Vec3 to_enu(const GeoPoint& p) const noexcept;

  /// Local ENU [m] -> geodetic.
  [[nodiscard]] GeoPoint to_geo(const Vec3& enu) const noexcept;

 private:
  GeoPoint origin_;
  double cos_lat_;  // cached cosine of the origin latitude
};

}  // namespace skyferry::geo
