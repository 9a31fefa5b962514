#include "mac/rate_control.h"

#include <algorithm>
#include <cassert>

namespace skyferry::mac {
namespace {

constexpr double kMinstrelEwmaWeight = 0.75;  ///< weight of the *old* estimate
constexpr int kMinstrelSamplePeriod = 16;     ///< one sampling tx every N transmissions

}  // namespace

std::string FixedMcs::name() const { return "fixed-mcs" + std::to_string(mcs_); }

ArfRate::ArfRate(ArfConfig cfg, phy::ChannelWidth width, phy::GuardInterval gi) : cfg_(cfg) {
  // Ladder: every MCS ordered by PHY rate; single-stream first on ties so
  // step-down lands on the robust STBC rung.
  for (int i = 0; i < phy::kNumMcs; ++i)
    ladder_[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i);
  std::stable_sort(ladder_.begin(), ladder_.end(), [&](int a, int b) {
    const double ra = phy::mcs(a).phy_rate_bps(width, gi);
    const double rb = phy::mcs(b).phy_rate_bps(width, gi);
    if (ra != rb) return ra < rb;
    return phy::mcs(a).spatial_streams < phy::mcs(b).spatial_streams;
  });
}

MinstrelHt::MinstrelHt(MinstrelConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  for (int i = 0; i < phy::kNumMcs; ++i) {
    ideal_goodput_[static_cast<std::size_t>(i)] =
        ideal_goodput_bps(MacTiming{}, AmpduPolicy{}, MpduFormat{}, phy::mcs(i),
                          phy::ChannelWidth::kCw40MHz, phy::GuardInterval::kShort400ns);
  }
  // Start conservatively on the lowest allowed rate, as drivers do before
  // the first stats interval elapses.
  for (int i = 0; i < phy::kNumMcs; ++i) {
    if (cfg_.allowed[static_cast<std::size_t>(i)]) {
      best_ = i;
      break;
    }
  }
}

double MinstrelHt::probability(int mcs_index) const noexcept {
  return stats_[static_cast<std::size_t>(mcs_index)].ewma_prob;
}

double MinstrelHt::expected_goodput(int mcs_index, double prob) const noexcept {
  // minstrel_ht discards rates with very low success probability: the
  // retransmission cost dominates and the estimate is unreliable.
  if (prob < 0.1) return 0.0;
  return ideal_goodput_[static_cast<std::size_t>(mcs_index)] * prob;
}

int MinstrelHt::random_sample_rate() noexcept {
  // Uniform over the allowed mask.
  int allowed_count = 0;
  for (bool a : cfg_.allowed) allowed_count += a ? 1 : 0;
  assert(allowed_count > 0);
  auto pick = static_cast<int>(rng_.uniform_int(static_cast<std::uint64_t>(allowed_count)));
  for (int i = 0; i < phy::kNumMcs; ++i) {
    if (!cfg_.allowed[static_cast<std::size_t>(i)]) continue;
    if (pick-- == 0) return i;
  }
  return best_;
}

void MinstrelHt::update_stats(double now_s) {
  for (auto& rs : stats_) {
    if (rs.interval_attempted > 0) {
      const double p = static_cast<double>(rs.interval_delivered) /
                       static_cast<double>(rs.interval_attempted);
      rs.ewma_prob = (rs.ewma_prob < 0.0)
                         ? p
                         : kMinstrelEwmaWeight * rs.ewma_prob + (1.0 - kMinstrelEwmaWeight) * p;
    }
    rs.interval_attempted = 0;
    rs.interval_delivered = 0;
  }
  // Re-elect the best-expected-goodput rate among measured, allowed rates.
  double best_gp = -1.0;
  for (int i = 0; i < phy::kNumMcs; ++i) {
    const auto& rs = stats_[static_cast<std::size_t>(i)];
    if (!cfg_.allowed[static_cast<std::size_t>(i)] || rs.ewma_prob < 0.0) continue;
    const double gp = expected_goodput(i, rs.ewma_prob);
    if (gp > best_gp) {
      best_gp = gp;
      best_ = i;
    }
  }
  // If everything measured has collapsed (gp==0 everywhere), fall back to
  // the lowest allowed rate — the classic minstrel loss-burst behavior.
  if (best_gp <= 0.0) {
    for (int i = 0; i < phy::kNumMcs; ++i) {
      if (cfg_.allowed[static_cast<std::size_t>(i)]) {
        best_ = i;
        break;
      }
    }
  }
  next_update_t_ = now_s + cfg_.update_interval_s;
}

int MinstrelHt::select_mcs(double now_s) {
  if (now_s >= next_update_t_) update_stats(now_s);
  ++tx_counter_;
  if (tx_counter_ % kMinstrelSamplePeriod == 0) {
    return random_sample_rate();
  }
  return best_;
}

void MinstrelHt::report(double now_s, const TxFeedback& fb) {
  auto& rs = stats_[static_cast<std::size_t>(fb.mcs_index)];
  rs.interval_attempted += fb.attempted;
  rs.interval_delivered += fb.delivered;
  if (now_s >= next_update_t_) update_stats(now_s);
}

}  // namespace skyferry::mac
