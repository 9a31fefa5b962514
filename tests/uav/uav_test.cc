#include "uav/uav.h"

#include <gtest/gtest.h>

namespace skyferry::uav {
namespace {

UavConfig quad_at(const geo::Vec3& pos, const std::string& id = "q1") {
  UavConfig cfg;
  cfg.id = id;
  cfg.platform = PlatformSpec::arducopter();
  cfg.start_pos = pos;
  return cfg;
}

TEST(Uav, FliesToCommandedPosition) {
  Uav u(quad_at({0.0, 0.0, 10.0}), 1);
  u.goto_and_hold({40.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 1200; ++i) {
    u.tick(t, 0.05);
    t += 0.05;
  }
  // Arrival is declared within the default 5 m accept radius.
  EXPECT_NEAR(geo::distance(u.position(), {40.0, 0.0, 10.0}), 0.0, 5.5);
  EXPECT_TRUE(u.autopilot().is_holding());
}

TEST(Uav, OdometerAccumulates) {
  Uav u(quad_at({0.0, 0.0, 10.0}), 2);
  u.goto_and_hold({30.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    u.tick(t, 0.05);
    t += 0.05;
  }
  // Flies to within the 5 m accept radius of the 30 m target.
  EXPECT_GE(u.distance_flown_m(), 24.0);
  EXPECT_LT(u.distance_flown_m(), 60.0);
}

TEST(Uav, TraceIsRecorded) {
  UavConfig cfg = quad_at({0.0, 0.0, 10.0});
  cfg.trace_sample_period_s = 0.5;
  Uav u(cfg, 3);
  u.goto_and_hold({20.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    u.tick(t, 0.05);
    t += 0.05;
  }
  EXPECT_GT(u.trace().size(), 20u);
  EXPECT_NEAR(u.trace().duration(), 19.5, 1.0);
}

TEST(Uav, BatteryDrainsWhileFlying) {
  Uav u(quad_at({0.0, 0.0, 10.0}), 4);
  u.goto_and_hold({100.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    u.tick(t, 0.05);
    t += 0.05;
  }
  EXPECT_LT(u.battery().soc(), 1.0);
}

TEST(Uav, DepletedBatteryGroundsVehicle) {
  Uav u(quad_at({0.0, 0.0, 10.0}), 5);
  u.battery().drain(1e9, 10.0);  // force depletion
  ASSERT_TRUE(u.battery().depleted());
  u.goto_and_hold({100.0, 0.0, 10.0});
  const geo::Vec3 before = u.position();
  for (int i = 0; i < 100; ++i) u.tick(i * 0.05, 0.05);
  EXPECT_EQ(geo::distance(before, u.position()), 0.0);
}

TEST(Uav, GpsFixTracksPosition) {
  Uav u(quad_at({0.0, 0.0, 10.0}), 6);
  u.goto_and_hold({50.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 1500; ++i) {
    u.tick(t, 0.05);
    t += 0.05;
  }
  // The fix is noisy but must be within GPS-error range of the truth.
  EXPECT_LT(geo::distance(u.gps_fix(), u.position()), 15.0);
}

TEST(Uav, WindDriftsTheGroundTrack) {
  // Steady 2 m/s crosswind: a quad told to hover in place drifts unless
  // the autopilot keeps correcting; with correction it holds near the
  // waypoint but the odometer shows the extra work.
  UavConfig cfg = quad_at({0.0, 0.0, 10.0}, "windy");
  cfg.wind = [](double) { return geo::Vec3{2.0, 0.0, 0.0}; };
  Uav u(cfg, 31);
  u.goto_and_hold({0.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    u.tick(t, 0.05);
    t += 0.05;
  }
  // Station-keeping against the wind keeps it within the accept zone.
  EXPECT_LT(geo::distance(u.position(), {0.0, 0.0, 10.0}), 12.0);

  // Same vehicle with no position hold (idle) just drifts downwind.
  UavConfig cfg2 = quad_at({0.0, 0.0, 10.0}, "adrift");
  cfg2.wind = [](double) { return geo::Vec3{2.0, 0.0, 0.0}; };
  Uav drifter(cfg2, 32);
  t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    drifter.tick(t, 0.05);
    t += 0.05;
  }
  EXPECT_GT(drifter.position().x, 150.0);  // ~2 m/s * 100 s
}

TEST(Uav, HeadwindSlowsTheFerryLeg) {
  auto fly_time = [](const std::function<geo::Vec3(double)>& wind) {
    UavConfig cfg;
    cfg.id = "ferry";
    cfg.platform = PlatformSpec::arducopter();
    cfg.start_pos = {0.0, 0.0, 10.0};
    cfg.wind = wind;
    Uav u(cfg, 33);
    u.goto_and_hold({80.0, 0.0, 10.0});
    double t = 0.0;
    while (geo::distance(u.position(), {80.0, 0.0, 10.0}) > 4.0 && t < 120.0) {
      u.tick(t, 0.05);
      t += 0.05;
    }
    return t;
  };
  const double still = fly_time(nullptr);
  const double headwind = fly_time([](double) { return geo::Vec3{-2.0, 0.0, 0.0}; });
  EXPECT_GT(headwind, still * 1.2);
}

TEST(Uav, InFlightFailureGroundsVehicle) {
  // High failure rate: the drawn distance-to-failure is short, and the
  // vehicle goes down mid-leg.
  UavConfig cfg = quad_at({0.0, 0.0, 10.0}, "doomed");
  cfg.failure_rho_per_m = 0.05;  // mean 20 m to failure
  Uav u(cfg, 41);
  ASSERT_TRUE(std::isfinite(u.failure_distance_m()));
  u.goto_and_hold({500.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 40000 && !u.failed(); ++i) {
    u.tick(t, 0.05);
    t += 0.05;
  }
  EXPECT_TRUE(u.failed());
  EXPECT_LT(u.position().x, 490.0);  // never arrived
  EXPECT_GE(u.distance_flown_m(), u.failure_distance_m() - 1.0);
  // Once down, it stays down.
  const geo::Vec3 crash_site = u.position();
  for (int i = 0; i < 100; ++i) u.tick(t + i * 0.05, 0.05);
  EXPECT_EQ(geo::distance(crash_site, u.position()), 0.0);
}

TEST(Uav, NoFailuresWhenRhoZero) {
  UavConfig cfg = quad_at({0.0, 0.0, 10.0}, "safe");
  Uav u(cfg, 42);
  EXPECT_TRUE(std::isinf(u.failure_distance_m()));
  EXPECT_FALSE(u.failed());
}

TEST(Uav, FailureDistanceIsSeedDeterministicAndExponential) {
  // Mean of drawn distances over many seeds ~ 1/rho.
  double sum = 0.0;
  const int n = 400;
  for (int k = 0; k < n; ++k) {
    UavConfig cfg = quad_at({0.0, 0.0, 10.0}, std::string("u").append(std::to_string(k)));
    cfg.failure_rho_per_m = 1e-3;
    Uav u(cfg, 1000 + static_cast<std::uint64_t>(k));
    sum += u.failure_distance_m();
  }
  EXPECT_NEAR(sum / n, 1000.0, 150.0);
}

TEST(Uav, TwoUavsConvergeForRendezvous) {
  // The core maneuver of the paper: a ferry approaches a hovering peer.
  Uav ferry(quad_at({80.0, 0.0, 10.0}, "ferry"), 7);
  Uav hover(quad_at({0.0, 0.0, 10.0}, "hover"), 8);
  hover.goto_and_hold({0.0, 0.0, 10.0});
  ferry.goto_and_hold({20.0, 0.0, 10.0});  // stop 20 m short (min distance)
  double t = 0.0;
  for (int i = 0; i < 1500; ++i) {
    ferry.tick(t, 0.05);
    hover.tick(t, 0.05);
    t += 0.05;
  }
  EXPECT_NEAR(geo::distance(ferry.position(), hover.position()), 20.0, 5.0);
}

}  // namespace
}  // namespace skyferry::uav
