// The transfer kernels every simulator shares (DESIGN.md §7): one
// 802.11n A-MPDU/Block-ACK exchange and one frame-fate draw, plus the
// airtime memo the exchange reads. mac::LinkSimulator,
// link::GenericSession (through link::burst_round) and
// fleet::FleetEngine all call these, so each draw lives in one place.
// Every step is pure apart from the caller's sim::Rng, which it consumes
// in a fixed order: the delivered-count draw(s), then the Block ACK.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mac/ampdu.h"
#include "mac/rate_control.h"
#include "phy/per.h"
#include "phy/per_table.h"
#include "sim/rng.h"

namespace skyferry::mac {

/// Block ACK frame size on air (32 bytes at the basic rate).
inline constexpr int kBlockAckBits = 32 * 8;

/// Where a round's frame error rates come from. With a `table`
/// (LinkFidelity::kAggregate) the delivered count is one
/// Binomial(n, 1 - PER) at the table's jitter-marginalized PER; without
/// one (kPerMpdu) every frame draws its own SNR jitter and one Bernoulli
/// against the analytic `model`.
struct FrameErrors {
  const phy::PerTable* table{nullptr};
  const phy::ErrorModel* model{nullptr};
  int frame_bits{0};
  double jitter_db{0.0};

  /// Error rate of one frame at MCS `mcs` and exactly `snr_db` (no
  /// jitter draw).
  [[nodiscard]] double per(int mcs, double snr_db) const noexcept {
    return table != nullptr ? table->per(snr_db)
                            : model->packet_error_rate(phy::mcs(mcs), snr_db, frame_bits);
  }

  /// How many of `n` frames sent at MCS `mcs` under aggregate SNR
  /// `snr_db` arrive.
  [[nodiscard]] std::uint64_t delivered(int mcs, std::uint64_t n, double snr_db,
                                        sim::Rng& rng) const noexcept {
    if (table != nullptr) return rng.binomial(n, 1.0 - table->per(snr_db));
    const phy::McsInfo& m = phy::mcs(mcs);
    std::uint64_t got = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double frame_snr = snr_db + jitter_db * rng.gaussian();
      if (!rng.bernoulli(model->packet_error_rate(m, frame_snr, frame_bits))) ++got;
    }
    return got;
  }
};

/// Airtime memo of one MAC configuration: (mcs, backlog) -> subframes
/// and (mcs, n, retry stage) -> exchange seconds. Entries fill on first
/// use; after fill() lookups never write, so concurrent readers are
/// safe. Aggregates beyond 256 subframes (the HT cap is 64) recompute.
class AirtimeMemo {
 public:
  AirtimeMemo(const MacTiming& timing, const AmpduPolicy& ampdu, const MpduFormat& mpdu,
              phy::ChannelWidth width, phy::GuardInterval gi)
      : timing_(timing), ampdu_(ampdu), mpdu_(mpdu), width_(width), gi_(gi),
        max_n_(static_cast<std::size_t>(std::max(ampdu.max_subframes, 0))),
        // Stages 0..retry_limit, and at least the fleet's failed-exchange stage 1.
        retries_(static_cast<std::size_t>(std::max(timing.retry_limit, 1) + 1)) {
    if (max_n_ < 1 || max_n_ > 256) return;
    subframes_.assign(phy::kNumMcs * max_n_, -1);
    exchange_.assign(phy::kNumMcs * max_n_ * retries_, -1.0);
  }

  void fill() {
    if (subframes_.empty()) return;
    for (int m = 0; m < phy::kNumMcs; ++m) {
      for (int n = 1; n <= static_cast<int>(max_n_); ++n) {
        (void)subframes(m, n);
        for (int r = 0; r < static_cast<int>(retries_); ++r) (void)exchange_s(m, n, r);
      }
    }
  }

  /// subframes_for() with the backlog clamped to [1, max_subframes].
  [[nodiscard]] int subframes(int mcs, int backlog) {
    const int b = std::clamp(backlog, 1, ampdu_.max_subframes);
    if (subframes_.empty()) return compute_subframes(mcs, b);
    std::int16_t& slot = subframes_[static_cast<std::size_t>(mcs) * max_n_ + b - 1];
    if (slot < 0) [[unlikely]] slot = static_cast<std::int16_t>(compute_subframes(mcs, b));
    return slot;
  }

  /// exchange_duration_s() for `n` in [1, max_subframes] subframes.
  [[nodiscard]] double exchange_s(int mcs, int n, int retry_stage) {
    if (exchange_.empty()) return compute_exchange_s(mcs, n, retry_stage);
    double& slot = exchange_[(static_cast<std::size_t>(mcs) * max_n_ + n - 1) * retries_ +
                             static_cast<std::size_t>(retry_stage)];
    if (slot < 0.0) [[unlikely]] slot = compute_exchange_s(mcs, n, retry_stage);
    return slot;
  }

 private:
  [[gnu::noinline]] int compute_subframes(int mcs, int b) const {
    return subframes_for(ampdu_, mpdu_, phy::mcs(mcs), width_, gi_, b);
  }
  [[gnu::noinline]] double compute_exchange_s(int mcs, int n, int retry_stage) const {
    return exchange_duration_s(timing_, mpdu_, phy::mcs(mcs), width_, gi_, n, retry_stage);
  }

  MacTiming timing_;
  AmpduPolicy ampdu_;
  MpduFormat mpdu_;
  phy::ChannelWidth width_;
  phy::GuardInterval gi_;
  std::size_t max_n_;
  std::size_t retries_;
  std::vector<std::int16_t> subframes_;  ///< -1: unset; empty: memo off
  std::vector<double> exchange_;         ///< <0: unset; empty: memo off
};

/// One DCF A-MPDU/Block-ACK exchange at `mcs` with `backlog` MPDUs
/// queued, at aggregate SNR `snr_db`: the subframe count, the delivered
/// subframes drawn from `data`, then the Block ACK (basic rate, same
/// fade), whose loss voids the whole exchange for the sender. Returns
/// the rate controller's feedback.
[[nodiscard]] inline TxFeedback ampdu_exchange(AirtimeMemo& memo, int mcs, int backlog,
                                               double snr_db, const FrameErrors& data,
                                               const FrameErrors& block_ack, sim::Rng& rng) {
  const int n = memo.subframes(mcs, backlog);
  auto delivered =
      static_cast<int>(data.delivered(mcs, static_cast<std::uint64_t>(n), snr_db, rng));
  if (rng.bernoulli(block_ack.per(0, snr_db))) delivered = 0;
  return TxFeedback{mcs, n, delivered};
}

}  // namespace skyferry::mac
