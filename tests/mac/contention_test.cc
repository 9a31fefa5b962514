#include "mac/contention.h"

#include <gtest/gtest.h>

#include "mac/ampdu.h"

namespace skyferry::mac {
namespace {

struct Fixture {
  MacTiming timing{};
  double frame_s{0.0};
  double ack_s{0.0};

  Fixture() {
    MpduFormat f;
    frame_s = ampdu_duration_s(f, phy::mcs(3), phy::ChannelWidth::kCw40MHz,
                               phy::GuardInterval::kShort400ns, 14);
    ack_s = block_ack_duration_s(phy::ChannelWidth::kCw40MHz);
  }
};

TEST(Contention, SingleStationIsBaseline) {
  Fixture f;
  const auto r = analyze_contention(1, f.timing, f.frame_s, f.ack_s);
  EXPECT_EQ(r.stations, 1);
  EXPECT_DOUBLE_EQ(r.collision_probability, 0.0);
  EXPECT_DOUBLE_EQ(r.efficiency_vs_single, 1.0);
  EXPECT_NEAR(r.tau, 2.0 / 17.0, 1e-9);
}

TEST(Contention, CollisionProbabilityGrowsWithStations) {
  Fixture f;
  double prev = 0.0;
  for (int n : {2, 4, 8, 16, 32}) {
    const auto r = analyze_contention(n, f.timing, f.frame_s, f.ack_s);
    EXPECT_GT(r.collision_probability, prev) << n;
    EXPECT_LT(r.collision_probability, 1.0) << n;
    prev = r.collision_probability;
  }
}

TEST(Contention, PerStationShareShrinksFasterThanOneOverN) {
  // Collisions waste airtime, so n stations each get less than 1/n of
  // the lone-station throughput.
  Fixture f;
  for (int n : {2, 4, 8}) {
    const auto r = analyze_contention(n, f.timing, f.frame_s, f.ack_s);
    EXPECT_LT(r.efficiency_vs_single, 1.0 / n * 1.05) << n;
    EXPECT_GT(r.efficiency_vs_single, 1.0 / n * 0.5) << n;
  }
}

TEST(Contention, TwoBianchiFixedPointProperties) {
  Fixture f;
  const auto r = analyze_contention(2, f.timing, f.frame_s, f.ack_s);
  // For n=2, p = 1-(1-tau): the fixed point must satisfy itself.
  EXPECT_NEAR(r.collision_probability, r.tau, 0.01);
}

}  // namespace
}  // namespace skyferry::mac
