#include "mac/timing.h"

#include <gtest/gtest.h>

namespace skyferry::mac {
namespace {

TEST(MacTiming, StandardConstants) {
  MacTiming t;
  EXPECT_DOUBLE_EQ(t.slot_s, 9e-6);
  EXPECT_DOUBLE_EQ(t.sifs_s, 16e-6);
  EXPECT_DOUBLE_EQ(t.difs_s(), 34e-6);
  EXPECT_EQ(t.cw_min, 15);
  EXPECT_EQ(t.cw_max, 1023);
}

TEST(MacTiming, ContentionWindowDoubling) {
  MacTiming t;
  EXPECT_EQ(t.cw_for_stage(0), 15);
  EXPECT_EQ(t.cw_for_stage(1), 31);
  EXPECT_EQ(t.cw_for_stage(2), 63);
  EXPECT_EQ(t.cw_for_stage(6), 1023);
  EXPECT_EQ(t.cw_for_stage(10), 1023);  // saturates
}

TEST(MacTiming, MeanBackoffGrowsWithStage) {
  MacTiming t;
  EXPECT_DOUBLE_EQ(t.mean_backoff_s(0), 9e-6 * 7.5);
  EXPECT_GT(t.mean_backoff_s(3), t.mean_backoff_s(1));
}

TEST(BlockAck, ShortButNonZero) {
  const double d = block_ack_duration_s(phy::ChannelWidth::kCw40MHz);
  EXPECT_GT(d, 30e-6);   // at least a preamble
  EXPECT_LT(d, 100e-6);  // but a tiny frame
}

}  // namespace
}  // namespace skyferry::mac
