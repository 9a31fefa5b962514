#include "uav/battery.h"

#include <gtest/gtest.h>

namespace skyferry::uav {
namespace {

TEST(Battery, StartsFull) {
  Battery b(PlatformSpec::arducopter());
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
  EXPECT_FALSE(b.depleted());
}

TEST(Battery, DrainsToAutonomyAtCruise) {
  const PlatformSpec spec = PlatformSpec::swinglet();
  Battery b(spec);
  // Fly at cruise for the rated autonomy: battery should be ~empty
  // (drain factor at cruise for fixed-wing is 1.0 by construction).
  b.drain(spec.battery_autonomy_s, spec.cruise_speed_mps);
  EXPECT_NEAR(b.soc(), 0.0, 1e-9);
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, NeverNegative) {
  Battery b(PlatformSpec::arducopter());
  b.drain(1e9, 10.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.0);
}

TEST(Battery, FasterDrainsFaster) {
  const PlatformSpec spec = PlatformSpec::arducopter();
  Battery slow(spec), fast(spec);
  slow.drain(300.0, spec.cruise_speed_mps);
  fast.drain(300.0, spec.max_speed_mps);
  EXPECT_LT(fast.soc(), slow.soc());
}

TEST(Battery, HoverStillDrainsQuad) {
  Battery b(PlatformSpec::arducopter());
  b.drain(600.0, 0.0);
  EXPECT_LT(b.soc(), 1.0);
  EXPECT_NEAR(b.drain_factor(0.0), 0.8, 1e-9);
}

TEST(Battery, DrainFactorAtCruiseIsOne) {
  for (const auto& spec : {PlatformSpec::swinglet(), PlatformSpec::arducopter()}) {
    Battery b(spec);
    EXPECT_NEAR(b.drain_factor(spec.cruise_speed_mps), 1.0, 1e-9) << spec.name;
  }
}

}  // namespace
}  // namespace skyferry::uav
