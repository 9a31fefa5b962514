#include "mac/exchange.h"

#include <gtest/gtest.h>

namespace skyferry::mac {
namespace {

AirtimeMemo default_memo(const AmpduPolicy& ampdu = {}) {
  return AirtimeMemo(MacTiming{}, ampdu, MpduFormat{}, phy::ChannelWidth::kCw20MHz,
                     phy::GuardInterval::kLong800ns);
}

TEST(AirtimeMemo, MatchesDirectComputationLazyAndFilled) {
  const MacTiming timing;
  const AmpduPolicy ampdu;
  const MpduFormat mpdu;
  const auto w = phy::ChannelWidth::kCw20MHz;
  const auto gi = phy::GuardInterval::kLong800ns;
  AirtimeMemo lazy = default_memo();
  AirtimeMemo filled = default_memo();
  filled.fill();
  for (int m = 0; m < phy::kNumMcs; ++m) {
    for (int backlog = 1; backlog <= ampdu.max_subframes; ++backlog) {
      const int n = subframes_for(ampdu, mpdu, phy::mcs(m), w, gi, backlog);
      EXPECT_EQ(lazy.subframes(m, backlog), n);
      EXPECT_EQ(filled.subframes(m, backlog), n);
      for (int r = 0; r <= timing.retry_limit; ++r) {
        const double s = exchange_duration_s(timing, mpdu, phy::mcs(m), w, gi, backlog, r);
        EXPECT_EQ(lazy.exchange_s(m, backlog, r), s);
        EXPECT_EQ(filled.exchange_s(m, backlog, r), s);
      }
    }
    // Backlogs outside [1, max_subframes] clamp.
    EXPECT_EQ(lazy.subframes(m, 0), lazy.subframes(m, 1));
    EXPECT_EQ(lazy.subframes(m, 1000), lazy.subframes(m, ampdu.max_subframes));
  }
}

TEST(AirtimeMemo, OversizedPolicyRecomputesInsteadOfMemoizing) {
  AmpduPolicy huge;
  huge.max_subframes = 1000;
  huge.max_ampdu_bytes = 1 << 30;
  huge.max_duration_s = 1.0;
  AirtimeMemo memo = default_memo(huge);
  memo.fill();
  const MpduFormat mpdu;
  EXPECT_EQ(memo.subframes(7, 900),
            subframes_for(huge, mpdu, phy::mcs(7), phy::ChannelWidth::kCw20MHz,
                          phy::GuardInterval::kLong800ns, 900));
}

// The kernel's RNG contract: delivered-count draw, then the Block-ACK
// Bernoulli. Replaying the same draws by hand must reproduce it.
TEST(AmpduExchange, AggregateDrawOrderIsBinomialThenBlockAck) {
  phy::PerTableCache cache(0.9);
  const MpduFormat mpdu;
  const phy::PerTable& data_t = cache.table(phy::mcs(3), mpdu.mpdu_bits(), 2.0);
  const phy::PerTable& ba_t = cache.table(phy::mcs(0), kBlockAckBits);
  const FrameErrors data{&data_t, nullptr, 0, 0.0};
  const FrameErrors ba{&ba_t, nullptr, 0, 0.0};
  AirtimeMemo memo = default_memo();
  for (double snr : {5.0, 12.0, 18.0, 30.0}) {
    sim::Rng a(99), b(99);
    const TxFeedback fb = ampdu_exchange(memo, 3, 14, snr, data, ba, a);
    const int n = memo.subframes(3, 14);
    auto got = static_cast<int>(b.binomial(static_cast<std::uint64_t>(n), 1.0 - data_t.per(snr)));
    if (b.bernoulli(ba_t.per(snr))) got = 0;
    EXPECT_EQ(fb.mcs_index, 3);
    EXPECT_EQ(fb.attempted, n);
    EXPECT_EQ(fb.delivered, got) << snr;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "same stream position after the step";
  }
}

TEST(AmpduExchange, PerMpduDrawsJitterAndBernoulliPerSubframe) {
  const phy::ErrorModel em(0.9);
  const MpduFormat mpdu;
  const FrameErrors data{nullptr, &em, mpdu.mpdu_bits(), 2.0};
  const FrameErrors ba{nullptr, &em, kBlockAckBits, 0.0};
  AirtimeMemo memo = default_memo();
  sim::Rng a(7), b(7);
  const TxFeedback fb = ampdu_exchange(memo, 2, 5, 14.0, data, ba, a);
  int got = 0;
  for (int i = 0; i < fb.attempted; ++i) {
    const double snr = 14.0 + 2.0 * b.gaussian();
    if (!b.bernoulli(em.packet_error_rate(phy::mcs(2), snr, mpdu.mpdu_bits()))) ++got;
  }
  if (b.bernoulli(em.packet_error_rate(phy::mcs(0), 14.0, kBlockAckBits))) got = 0;
  EXPECT_EQ(fb.attempted, memo.subframes(2, 5));
  EXPECT_EQ(fb.delivered, got);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace skyferry::mac
