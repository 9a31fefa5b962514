#include "geo/geodesy.h"

#include <algorithm>
#include <cmath>

namespace skyferry::geo {

double haversine_m(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = deg2rad(a.lat_deg);
  const double lat2 = deg2rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg2rad(b.lon_deg - a.lon_deg);

  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  // Clamp against rounding before asin; h in [0,1] mathematically.
  const double hc = std::clamp(h, 0.0, 1.0);
  return 2.0 * kEarthRadiusM * std::asin(std::sqrt(hc));
}

LocalFrame::LocalFrame(const GeoPoint& origin) noexcept
    : origin_(origin), cos_lat_(std::cos(deg2rad(origin.lat_deg))) {}

Vec3 LocalFrame::to_enu(const GeoPoint& p) const noexcept {
  const double east = deg2rad(p.lon_deg - origin_.lon_deg) * kEarthRadiusM * cos_lat_;
  const double north = deg2rad(p.lat_deg - origin_.lat_deg) * kEarthRadiusM;
  return {east, north, p.alt_m - origin_.alt_m};
}

GeoPoint LocalFrame::to_geo(const Vec3& enu) const noexcept {
  GeoPoint p;
  p.lon_deg = origin_.lon_deg + rad2deg(enu.x / (kEarthRadiusM * cos_lat_));
  p.lat_deg = origin_.lat_deg + rad2deg(enu.y / kEarthRadiusM);
  p.alt_m = origin_.alt_m + enu.z;
  return p;
}

}  // namespace skyferry::geo
