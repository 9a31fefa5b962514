#include "geo/geodesy.h"

#include <cmath>

#include <gtest/gtest.h>

namespace skyferry::geo {
namespace {

// Zurich-ish coordinates, the paper's flight field neighborhood.
const GeoPoint kOrigin{47.3769, 8.5417, 400.0};

TEST(Haversine, ZeroForSamePoint) {
  EXPECT_DOUBLE_EQ(haversine_m(kOrigin, kOrigin), 0.0);
}

TEST(Haversine, OneDegreeLatitudeIsAbout111km) {
  GeoPoint north = kOrigin;
  north.lat_deg += 1.0;
  const double d = haversine_m(kOrigin, north);
  EXPECT_NEAR(d, 111195.0, 100.0);  // 2*pi*R/360
}

TEST(Haversine, Symmetric) {
  GeoPoint p2 = kOrigin;
  p2.lat_deg += 0.003;
  p2.lon_deg -= 0.002;
  EXPECT_DOUBLE_EQ(haversine_m(kOrigin, p2), haversine_m(p2, kOrigin));
}

TEST(Haversine, ShortBaselineMatchesPlanarApproximation) {
  // 100 m east at this latitude.
  GeoPoint east = kOrigin;
  east.lon_deg += rad2deg(100.0 / (kEarthRadiusM * std::cos(deg2rad(kOrigin.lat_deg))));
  EXPECT_NEAR(haversine_m(kOrigin, east), 100.0, 0.01);
}

TEST(LocalFrame, RoundTripsPositions) {
  const LocalFrame frame(kOrigin);
  const Vec3 enu{123.4, -56.7, 89.0};
  const GeoPoint g = frame.to_geo(enu);
  const Vec3 back = frame.to_enu(g);
  EXPECT_NEAR(back.x, enu.x, 1e-6);
  EXPECT_NEAR(back.y, enu.y, 1e-6);
  EXPECT_NEAR(back.z, enu.z, 1e-9);
}

TEST(LocalFrame, OriginMapsToZero) {
  const LocalFrame frame(kOrigin);
  const Vec3 zero = frame.to_enu(kOrigin);
  EXPECT_NEAR(zero.norm(), 0.0, 1e-9);
}

TEST(LocalFrame, EnuDistanceMatchesHaversine) {
  // Within the field-test scale (~400 m) the planar frame must agree with
  // the geodesic to centimeters.
  const LocalFrame frame(kOrigin);
  const Vec3 p{400.0, 300.0, 0.0};
  const GeoPoint g = frame.to_geo(p);
  EXPECT_NEAR(haversine_m(kOrigin, g), 500.0, 0.05);
}

TEST(DegRadConversions, RoundTrip) {
  EXPECT_DOUBLE_EQ(rad2deg(deg2rad(123.456)), 123.456);
  EXPECT_DOUBLE_EQ(deg2rad(180.0), kPi);
}

}  // namespace
}  // namespace skyferry::geo
