// Property-based geo invariants (tests/support/proptest.h): randomized
// cases with replayable per-case seeds instead of hand-picked fixtures.
#include <cmath>

#include <gtest/gtest.h>

#include "geo/dubins.h"
#include "geo/geodesy.h"
#include "geo/trajectory.h"
#include "geo/vec3.h"
#include "support/proptest.h"

namespace skyferry::geo {
namespace {

TEST(GeoProperty, DubinsPathNeverShorterThanEuclideanDistance) {
  FOR_ALL(300, 0xD0B1A5ULL, g) {
    const Pose2 from{g.uniform(-500.0, 500.0), g.uniform(-500.0, 500.0),
                     g.uniform(-kPi, kPi)};
    const Pose2 to{g.uniform(-500.0, 500.0), g.uniform(-500.0, 500.0),
                   g.uniform(-kPi, kPi)};
    const double radius = g.uniform(5.0, 60.0);
    const double euclid = std::hypot(to.x - from.x, to.y - from.y);
    const DubinsPath p = dubins_shortest(from, to, radius);
    EXPECT_GE(p.length_m(), euclid - 1e-6)
        << "from=(" << from.x << "," << from.y << "," << from.theta << ") to=(" << to.x << ","
        << to.y << "," << to.theta << ") r=" << radius;
  }
}

TEST(GeoProperty, LocalFrameRoundTripIsIdentity) {
  FOR_ALL(300, 0x10CA1ULL, g) {
    const GeoPoint origin{g.uniform(-70.0, 70.0), g.uniform(-180.0, 180.0),
                          g.uniform(0.0, 500.0)};
    const LocalFrame frame(origin);
    // Paper-scale offsets: the frame is specified for ~1 km scales.
    const Vec3 enu{g.uniform(-1000.0, 1000.0), g.uniform(-1000.0, 1000.0),
                   g.uniform(-100.0, 100.0)};
    const Vec3 back = frame.to_enu(frame.to_geo(enu));
    EXPECT_NEAR(back.x, enu.x, 1e-6) << "origin lat=" << origin.lat_deg;
    EXPECT_NEAR(back.y, enu.y, 1e-6);
    EXPECT_NEAR(back.z, enu.z, 1e-6);
  }
}

TEST(GeoProperty, GeoRoundTripThroughEnuIsIdentity) {
  FOR_ALL(300, 0x6E0ULL, g) {
    const GeoPoint origin{g.uniform(-70.0, 70.0), g.uniform(-179.0, 179.0), 0.0};
    const LocalFrame frame(origin);
    // A geodetic point within ~1 km of the origin (equirectangular regime).
    const GeoPoint p{origin.lat_deg + g.uniform(-0.009, 0.009),
                     origin.lon_deg + g.uniform(-0.009, 0.009), g.uniform(0.0, 300.0)};
    const GeoPoint back = frame.to_geo(frame.to_enu(p));
    EXPECT_NEAR(back.lat_deg, p.lat_deg, 1e-9);
    EXPECT_NEAR(back.lon_deg, p.lon_deg, 1e-9);
    EXPECT_NEAR(back.alt_m, p.alt_m, 1e-6);
  }
}

TEST(GeoProperty, TrajectoryArcLengthIsAdditive) {
  FOR_ALL(200, 0xA2CULL, g) {
    const int n = g.uniform_int(2, 12);
    Trajectory full;
    Trajectory prefix;
    Trajectory suffix;
    const int split = g.uniform_int(1, n - 1);
    double t = 0.0;
    double manual = 0.0;
    Vec3 prev;
    for (int i = 0; i < n; ++i) {
      TrajectorySample s;
      s.t_s = t;
      s.pos = Vec3{g.uniform(-200.0, 200.0), g.uniform(-200.0, 200.0), g.uniform(0.0, 50.0)};
      full.push(s);
      if (i <= split) prefix.push(s);
      if (i >= split) suffix.push(s);
      if (i > 0) manual += (s.pos - prev).norm();
      prev = s.pos;
      t += g.uniform(0.1, 2.0);
    }
    // Sum of segment lengths equals the hand summed polyline, and splitting
    // at any sample conserves total arc length.
    EXPECT_NEAR(full.path_length(), manual, 1e-9 * (1.0 + manual));
    EXPECT_NEAR(prefix.path_length() + suffix.path_length(), full.path_length(),
                1e-9 * (1.0 + full.path_length()))
        << "n=" << n << " split=" << split;
  }
}

TEST(GeoProperty, HaversineIsSymmetricAndNonNegative) {
  FOR_ALL(300, 0x4A7ULL, g) {
    const GeoPoint a{g.uniform(-89.0, 89.0), g.uniform(-180.0, 180.0), 0.0};
    const GeoPoint b{g.uniform(-89.0, 89.0), g.uniform(-180.0, 180.0), 0.0};
    const double ab = haversine_m(a, b);
    const double ba = haversine_m(b, a);
    EXPECT_GE(ab, 0.0);
    EXPECT_NEAR(ab, ba, 1e-6 * (1.0 + ab));
    EXPECT_NEAR(haversine_m(a, a), 0.0, 1e-6);
  }
}

}  // namespace
}  // namespace skyferry::geo
