// PHY rate control. The paper's central MAC finding (Fig. 6) is that the
// driver's auto-rate algorithm collapses on the fast-varying aerial
// channel, while a well-chosen *fixed* MCS doubles throughput. We model
// both: FixedMcs, and MinstrelHt — a faithful-enough reimplementation of
// the Linux minstrel_ht statistics loop (EWMA success probabilities,
// periodic best-rate re-election, random sampling) whose staleness
// relative to the channel coherence time is what loses the throughput.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "mac/ampdu.h"
#include "phy/mcs.h"
#include "sim/rng.h"

namespace skyferry::mac {

/// Per-A-MPDU transmit feedback delivered to the controller.
struct TxFeedback {
  int mcs_index{0};
  int attempted{0};  ///< subframes in the aggregate
  int delivered{0};  ///< subframes acked
};

/// Interface for per-link rate controllers.
class RateController {
 public:
  virtual ~RateController() = default;

  /// MCS index to use for the next A-MPDU at simulation time `now_s`.
  [[nodiscard]] virtual int select_mcs(double now_s) = 0;

  /// Feedback after an exchange completes.
  virtual void report(double now_s, const TxFeedback& fb) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Pins one MCS forever (the paper's fixed-PHY-rate experiments).
class FixedMcs final : public RateController {
 public:
  explicit FixedMcs(int mcs_index) noexcept : mcs_(mcs_index) {}

  [[nodiscard]] int select_mcs(double) override { return mcs_; }
  void report(double, const TxFeedback&) override {}
  [[nodiscard]] std::string name() const override;

 private:
  int mcs_;
};

/// Minstrel-HT-style auto rate. It weighs the rates by their ideal
/// goodput under the default MAC (MacTiming, AmpduPolicy, MpduFormat on
/// a 40 MHz short-GI channel).
struct MinstrelConfig {
  double update_interval_s{0.1};  ///< Linux default: 100 ms stats window
  /// Rates the controller may use (driver rate mask). Default: all 16.
  std::array<bool, phy::kNumMcs> allowed{};

  MinstrelConfig() { allowed.fill(true); }
};

/// Vendor-firmware-style ARF (Auto Rate Fallback) — the shape of rate
/// control the paper's Ralink RT3572 actually ran. The rate ladder is
/// all 16 MCS ordered by PHY rate, which interleaves the two-stream SDM
/// rates among the single-stream ones; on the rank-poor aerial channel
/// the SDM rungs are broken, so the periodic step-up probes and the
/// fall-backs they trigger burn a large share of airtime. This is the
/// mechanism behind the paper's Fig. 6 finding that a good *fixed* MCS
/// doubles the auto-rate throughput.
struct ArfConfig {
  int up_after_successes{5};    ///< consecutive successes to step up
  int down_after_failures{3};   ///< consecutive failures to step down
  int probe_timeout_exchanges{8};  ///< periodic up-probe even while stable
  /// Exchange counts as a success when at least this fraction of the
  /// aggregate was delivered.
  double success_fraction{0.5};
};

class ArfRate final : public RateController {
 public:
  explicit ArfRate(ArfConfig cfg = {}, phy::ChannelWidth width = phy::ChannelWidth::kCw40MHz,
                   phy::GuardInterval gi = phy::GuardInterval::kShort400ns);

  // Inline: the fleet's exchange sweep calls these once per exchange on
  // the concrete type.
  [[nodiscard]] int select_mcs(double) override {
    return ladder_[static_cast<std::size_t>(rung_)];
  }
  void report(double, const TxFeedback& fb) override {
    const bool success =
        fb.attempted > 0 &&
        static_cast<double>(fb.delivered) >= cfg_.success_fraction * fb.attempted;
    ++since_up_;
    if (success) {
      ++success_streak_;
      failure_streak_ = 0;
    } else {
      ++failure_streak_;
      success_streak_ = 0;
    }

    if (failure_streak_ >= cfg_.down_after_failures) {
      if (rung_ > 0) --rung_;
      failure_streak_ = 0;
      since_up_ = 0;
      return;
    }
    // Step up on a success streak, or probe upward periodically (classic
    // ARF timer) — the probe is what keeps re-testing a broken rung.
    if ((success_streak_ >= cfg_.up_after_successes ||
         (since_up_ >= cfg_.probe_timeout_exchanges && success)) &&
        rung_ + 1 < ladder_size()) {
      ++rung_;
      success_streak_ = 0;
      since_up_ = 0;
    }
  }
  [[nodiscard]] std::string name() const override { return "arf-vendor"; }

  /// Current rung on the rate ladder (for tests).
  [[nodiscard]] int rung() const noexcept { return rung_; }
  [[nodiscard]] int ladder_size() const noexcept { return static_cast<int>(ladder_.size()); }
  /// MCS index at a ladder rung.
  [[nodiscard]] int mcs_at(int rung) const noexcept { return ladder_[static_cast<std::size_t>(rung)]; }

 private:
  ArfConfig cfg_;
  std::array<std::int8_t, phy::kNumMcs> ladder_{};  ///< MCS indices ordered by PHY rate
  int rung_{0};
  int success_streak_{0};
  int failure_streak_{0};
  int since_up_{0};
};

class MinstrelHt final : public RateController {
 public:
  MinstrelHt(MinstrelConfig cfg, std::uint64_t seed);

  [[nodiscard]] int select_mcs(double now_s) override;
  void report(double now_s, const TxFeedback& fb) override;
  [[nodiscard]] std::string name() const override { return "minstrel-ht"; }

  /// Current EWMA delivery probability estimate for an MCS (for tests).
  [[nodiscard]] double probability(int mcs_index) const noexcept;
  /// Currently elected best-throughput MCS.
  [[nodiscard]] int best_mcs() const noexcept { return best_; }

 private:
  void update_stats(double now_s);
  [[nodiscard]] double expected_goodput(int mcs_index, double prob) const noexcept;
  [[nodiscard]] int random_sample_rate() noexcept;

  MinstrelConfig cfg_;
  sim::Rng rng_;

  struct RateStats {
    double ewma_prob{-1.0};  ///< -1 = never measured
    int interval_attempted{0};
    int interval_delivered{0};
  };
  std::array<RateStats, phy::kNumMcs> stats_{};
  std::array<double, phy::kNumMcs> ideal_goodput_{};
  double next_update_t_{0.0};
  int best_{0};
  int tx_counter_{0};
};

}  // namespace skyferry::mac
