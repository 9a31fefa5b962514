// Saturated-link simulator: drives DCF A-MPDU/Block-ACK exchanges over a
// time-evolving aerial channel under a rate controller, with the link
// geometry (distance, relative speed) supplied as a function of time.
// This is the engine behind the paper's iperf-style throughput
// measurements (Figs. 5-7) and the full-stack variant of Fig. 1.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mac/ampdu.h"
#include "mac/exchange.h"
#include "mac/rate_control.h"
#include "phy/channel.h"
#include "phy/per.h"
#include "phy/per_table.h"

namespace skyferry::mac {

/// Link geometry at a time instant.
struct Geometry {
  double distance_m{0.0};
  double relative_speed_mps{0.0};
};
using GeometryFn = std::function<Geometry(double t_s)>;

/// Fixed geometry helper.
[[nodiscard]] GeometryFn static_geometry(double distance_m, double relative_speed_mps = 0.0);

/// One windowed throughput sample.
struct ThroughputSample {
  double t_s{0.0};        ///< window end time
  double mbps{0.0};       ///< goodput over the window
};

/// Fidelity of the subframe-fate sampling (DESIGN.md §7).
enum class LinkFidelity {
  /// Reference path: one Gaussian jitter + one Bernoulli per subframe,
  /// PER from the analytic phy::ErrorModel. Exact but ~64 erfc/pow
  /// chains per A-MPDU.
  kPerMpdu,
  /// Fast path: PER from a phy::PerTable lookup and the delivered count
  /// drawn as one Binomial(n, 1-PER). With zero jitter this is the
  /// *same distribution* as kPerMpdu (subframe fates are iid); with
  /// jitter the shared PER is marginalized over the jitter by
  /// Gauss-Hermite quadrature, which again reproduces the per-MPDU
  /// delivered distribution exactly up to table/quadrature error.
  kAggregate,
};

struct LinkConfig {
  MacTiming timing{};
  AmpduPolicy ampdu{};
  MpduFormat mpdu{};
  phy::ChannelConfig channel{};
  double meter_window_s{0.5};  ///< throughput sampling window (infinite = no sampling)
  /// Per-MPDU SNR mismatch [dB, 1-sigma]: OFDM frequency selectivity and
  /// symbol-timing jitter decorrelate subframe fates within an aggregate
  /// and soften the PER-vs-distance cliff of fixed rates.
  double per_mpdu_snr_jitter_db{2.0};
  /// Subframe-fate sampling path; kPerMpdu keeps bit-compatibility with
  /// the original exchange-by-exchange draws, kAggregate is the
  /// table-driven fast path (~10x+ on a saturated link-second).
  LinkFidelity fidelity{LinkFidelity::kPerMpdu};
  /// Optional cross-simulator PER-table cache (kAggregate only). When
  /// set, simulators use it instead of a private cache, so a parallel
  /// Monte-Carlo fan-out pays table construction once per sweep instead
  /// of once per trial. It must serve `channel.spatial_correlation`
  /// (make_shared_per_tables on this config builds one that does); the
  /// LinkSimulator constructor rejects any other.
  std::shared_ptr<phy::PerTableCache> shared_tables{};
};

/// A thread-safe PER-table cache matching `cfg`, for LinkConfig::shared_tables.
[[nodiscard]] std::shared_ptr<phy::PerTableCache> make_shared_per_tables(const LinkConfig& cfg);

/// Why an incomplete run ended — the failure taxonomy chaos campaigns
/// use to tell "starved by outage" from "out of range" from "the clock
/// simply ran out". Only meaningful when completed == false.
enum class IncompleteReason : std::uint8_t {
  kNone,               ///< completed, or incomplete with no finer diagnosis
  kTimeLimit,          ///< the transfer hit max_duration_s while the link was live
  kOutOfRange,         ///< geometry stayed beyond the rate curve's range
  kStarvedByOutage,    ///< outage / injected blackout held the link down
  kSessionSetupFailed  ///< repeated session-setup (attach) failures
};

/// Stable log tag for an IncompleteReason.
[[nodiscard]] constexpr const char* to_string(IncompleteReason r) noexcept {
  switch (r) {
    case IncompleteReason::kTimeLimit:
      return "time-limit";
    case IncompleteReason::kOutOfRange:
      return "out-of-range";
    case IncompleteReason::kStarvedByOutage:
      return "starved-by-outage";
    case IncompleteReason::kSessionSetupFailed:
      return "session-setup-failed";
    case IncompleteReason::kNone:
      break;
  }
  return "none";
}

/// Result of a timed run or a fixed-size transfer.
struct LinkRunResult {
  double duration_s{0.0};
  std::uint64_t payload_bits_delivered{0};
  std::uint64_t mpdus_attempted{0};
  std::uint64_t mpdus_delivered{0};
  std::uint64_t exchanges{0};
  std::vector<ThroughputSample> samples;
  /// Cumulative delivered-data curve (time [s], delivered [MB]) sampled
  /// per meter window — the exact series of the paper's Figure 1.
  std::vector<ThroughputSample> transfer_curve_mb;
  bool completed{true};  ///< false if a transfer hit the time limit
  /// Failure taxonomy for incomplete runs (kNone when completed).
  IncompleteReason incomplete_reason{IncompleteReason::kNone};

  [[nodiscard]] double mean_goodput_mbps() const noexcept {
    return duration_s > 0.0 ? static_cast<double>(payload_bits_delivered) / duration_s / 1e6
                            : 0.0;
  }
  [[nodiscard]] double loss_rate() const noexcept {
    return mpdus_attempted > 0
               ? 1.0 - static_cast<double>(mpdus_delivered) / static_cast<double>(mpdus_attempted)
               : 0.0;
  }
};

class LinkSimulator {
 public:
  /// The controller must outlive the simulator. Throws
  /// std::invalid_argument when `cfg.shared_tables` was built for
  /// another spatial correlation than `cfg.channel`'s.
  LinkSimulator(LinkConfig cfg, RateController& rate_control, std::uint64_t seed);

  /// Run saturated (always-backlogged) traffic for `duration_s`.
  LinkRunResult run_saturated(double duration_s, const GeometryFn& geometry);

  /// Deliver exactly `payload_bytes` of application data; stops early at
  /// `max_duration_s` (completed=false). Geometry may move the endpoints.
  LinkRunResult run_transfer(std::uint64_t payload_bytes, double max_duration_s,
                             const GeometryFn& geometry);

  [[nodiscard]] const LinkConfig& config() const noexcept { return cfg_; }

 private:
  LinkRunResult run_internal(std::uint64_t payload_bytes_limit, double duration_s,
                             const GeometryFn& geometry);
  /// PER sources of the data MPDUs at `mcs` and of the Block ACK for the
  /// configured fidelity; kAggregate tables resolve on first use.
  [[nodiscard]] FrameErrors data_errors(int mcs);
  [[nodiscard]] FrameErrors ba_errors();

  LinkConfig cfg_;
  RateController& rc_;
  phy::LinkChannel channel_;
  phy::ErrorModel error_model_;
  sim::Rng rng_;
  phy::PerTableCache tables_;          ///< private fallback when no shared cache
  phy::PerTableCache* table_src_;      ///< cfg_.shared_tables.get() or &tables_
  std::array<const phy::PerTable*, phy::kNumMcs> data_tables_{};
  const phy::PerTable* ba_table_{nullptr};
  AirtimeMemo airtime_;  ///< valid while cfg_ is constant (the simulator's lifetime)
};

}  // namespace skyferry::mac
