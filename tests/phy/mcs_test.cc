#include "phy/mcs.h"

#include <ostream>
#include <string>

#include <gtest/gtest.h>

namespace skyferry::phy {
namespace {

TEST(McsTable, HasSixteenEntriesWithMatchingIndex) {
  const auto& table = mcs_table();
  ASSERT_EQ(table.size(), 16u);
  for (int i = 0; i < kNumMcs; ++i) {
    EXPECT_EQ(table[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(&mcs(i), &table[static_cast<std::size_t>(i)]);
  }
}

TEST(McsTable, StreamCounts) {
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(mcs(i).spatial_streams, 1) << i;
    EXPECT_FALSE(mcs(i).is_sdm());
  }
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(mcs(i).spatial_streams, 2) << i;
    EXPECT_TRUE(mcs(i).is_sdm());
  }
}

// Standard 802.11n data rates (Mb/s), cross-checked against IEEE
// 802.11n-2009 Tables 20-30/20-32: {MCS, width, GI, rate}.
struct RateCase {
  int mcs;
  ChannelWidth w;
  GuardInterval gi;
  double mbps;
};

// gtest's default printer dumps the struct's bytes, padding included,
// and ctest names carry that dump, so they would change between builds.
std::string rate_case_name(const RateCase& c) {
  return "mcs" + std::to_string(c.mcs) + (c.w == ChannelWidth::kCw20MHz ? "_20MHz" : "_40MHz") +
         (c.gi == GuardInterval::kShort400ns ? "_sgi" : "_lgi");
}

void PrintTo(const RateCase& c, std::ostream* os) { *os << rate_case_name(c) << " " << c.mbps; }

class McsRateTest : public ::testing::TestWithParam<RateCase> {};

TEST_P(McsRateTest, MatchesStandardRate) {
  const RateCase c = GetParam();
  EXPECT_NEAR(mcs(c.mcs).phy_rate_bps(c.w, c.gi) / 1e6, c.mbps, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    StandardRates, McsRateTest,
    ::testing::Values(
        RateCase{0, ChannelWidth::kCw20MHz, GuardInterval::kLong800ns, 6.5},
        RateCase{7, ChannelWidth::kCw20MHz, GuardInterval::kLong800ns, 65.0},
        RateCase{0, ChannelWidth::kCw20MHz, GuardInterval::kShort400ns, 7.2222},
        RateCase{7, ChannelWidth::kCw20MHz, GuardInterval::kShort400ns, 72.2222},
        RateCase{0, ChannelWidth::kCw40MHz, GuardInterval::kLong800ns, 13.5},
        RateCase{7, ChannelWidth::kCw40MHz, GuardInterval::kLong800ns, 135.0},
        RateCase{0, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 15.0},
        RateCase{1, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 30.0},
        RateCase{2, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 45.0},
        RateCase{3, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 60.0},
        RateCase{4, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 90.0},
        RateCase{5, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 120.0},
        RateCase{6, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 135.0},
        RateCase{7, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 150.0},
        RateCase{8, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 30.0},
        RateCase{15, ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, 300.0}),
    [](const ::testing::TestParamInfo<RateCase>& info) { return rate_case_name(info.param); });

TEST(Mcs, TwoStreamDoublesRate) {
  for (int i = 0; i < 8; ++i) {
    const double one = mcs(i).phy_rate_bps(ChannelWidth::kCw40MHz, GuardInterval::kShort400ns);
    const double two = mcs(i + 8).phy_rate_bps(ChannelWidth::kCw40MHz, GuardInterval::kShort400ns);
    EXPECT_NEAR(two, 2.0 * one, 1.0);
  }
}

TEST(Preamble, GrowsWithStreams) {
  EXPECT_NEAR(preamble_duration_s(1), 36e-6, 1e-9);
  EXPECT_NEAR(preamble_duration_s(2), 40e-6, 1e-9);
}

TEST(FrameDuration, IncludesPreambleAndRoundsSymbols) {
  // 1 bit payload still costs preamble + at least one symbol.
  const double d = frame_duration_s(mcs(0), ChannelWidth::kCw20MHz, GuardInterval::kLong800ns, 1);
  EXPECT_GE(d, 36e-6 + 4e-6);
  // Duration is monotone in size.
  const double big =
      frame_duration_s(mcs(0), ChannelWidth::kCw20MHz, GuardInterval::kLong800ns, 12000);
  EXPECT_GT(big, d);
}

TEST(FrameDuration, HigherMcsIsFaster) {
  const int bits = 8 * 1500 * 14;  // a full aggregate
  const double slow =
      frame_duration_s(mcs(0), ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, bits);
  const double fast =
      frame_duration_s(mcs(7), ChannelWidth::kCw40MHz, GuardInterval::kShort400ns, bits);
  EXPECT_GT(slow, fast);
  // Roughly the rate ratio (10x) once the preamble is amortized.
  EXPECT_NEAR(slow / fast, 9.5, 1.0);
}

TEST(Modulation, BitsPerSymbol) {
  EXPECT_EQ(bits_per_symbol(Modulation::kBpsk), 1);
  EXPECT_EQ(bits_per_symbol(Modulation::kQpsk), 2);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam16), 4);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam64), 6);
}

TEST(Modulation, Names) {
  EXPECT_EQ(to_string(Modulation::kBpsk), "BPSK");
  EXPECT_EQ(to_string(Modulation::kQam64), "64-QAM");
}

}  // namespace
}  // namespace skyferry::phy
