// SNR -> PER lookup tables: the fast path of the link simulator.
//
// `ErrorModel::packet_error_rate` walks erfc/pow/log1p on every call —
// fine for plotting, ruinous when a Monte-Carlo mission evaluates it up
// to 64 times per simulated A-MPDU. A `PerTable` freezes the analytic
// model for one (MCS, frame size) pair onto a uniform SNR grid and
// answers queries with two loads and a lerp; a `PerTableCache` builds
// tables lazily per (MCS index, bits) so the simulator touches the
// analytic chain once per table, ever.
//
// Accuracy contract (enforced by tests/phy/per_table_test.cc): the
// table agrees with the analytic model *exactly* at every grid knot and
// within 1e-4 absolute everywhere on the grid. Queries outside the grid
// clamp to the edge knots, which sit in the saturated PER≈1 / PER≈0
// regions for every 802.11n MCS.
#pragma once

#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "phy/per.h"

namespace skyferry::phy {

/// One frozen SNR->PER curve for a fixed (MCS, frame bits) pair.
///
/// With `jitter_sigma_db > 0` the knots hold the *jitter-marginalized*
/// PER E[per(snr + sigma*Z)], Z ~ N(0,1) (31-node Gauss-Hermite over the
/// plain table), so `per()` answers the marginal in one lookup — the
/// link simulator's aggregate fast path folds the per-MPDU SNR jitter
/// into the table once at build time instead of quadrature per exchange.
class PerTable {
 public:
  /// The SNR grid [dB] every table shares. It covers every MCS's
  /// waterfall with margin: at -12 dB raw SNR all rates are saturated
  /// at PER 1, at 48 dB all are at PER 0. 1/64 dB keeps the plain-lerp
  /// error under 2.5e-5 even on the steepest waterfall, buying a
  /// branch-light two-load lookup; the whole grid is ~30 KB per curve.
  static constexpr double kSnrMinDb = -12.0;
  static constexpr double kSnrMaxDb = 48.0;
  static constexpr double kStepDb = 0.015625;

  PerTable(const ErrorModel& em, const McsInfo& m, int bits, double jitter_sigma_db = 0.0);

  /// PER at raw channel SNR [dB]: two loads + a linear lerp — the grid
  /// is fine enough (kStepDb) that plain interpolation
  /// beats the 1e-4 accuracy contract with margin. Exactly equal to the
  /// analytic model at grid knots; clamped to the edge knots outside
  /// the grid.
  [[nodiscard]] double per(double snr_db) const noexcept;

  /// Jitter-marginalized PER: E[per(snr + sigma*Z)], Z ~ N(0,1), via
  /// fixed 31-node Gauss-Hermite quadrature over the table. This is the
  /// exact per-subframe success probability of the per-MPDU reference
  /// path when subframe SNRs jitter independently around the aggregate
  /// fade (mac::LinkConfig::per_mpdu_snr_jitter_db).
  [[nodiscard]] double marginal_per(double snr_db, double sigma_db) const noexcept;

  [[nodiscard]] int knots() const noexcept { return static_cast<int>(per_.size()); }
  [[nodiscard]] static double knot_snr_db(int i) noexcept { return kSnrMinDb + i * kStepDb; }
  [[nodiscard]] double knot_per(int i) const noexcept { return per_[static_cast<std::size_t>(i)]; }

 private:
  std::vector<double> per_;  ///< exact knot values
};

/// Lazily built per-(MCS index, bits, jitter sigma) table cache over the
/// error model of one spatial correlation. Building is mutex-protected
/// and built tables are immutable, so one cache can be shared by every
/// simulator of a parallel Monte-Carlo fan-out
/// (mac::LinkConfig::shared_tables) and pay table construction once per
/// sweep instead of once per trial.
class PerTableCache {
 public:
  explicit PerTableCache(double spatial_correlation) noexcept : em_(spatial_correlation) {}

  /// The table for (m, bits) — jitter-marginalized when
  /// `jitter_sigma_db > 0` — building it on first use. The returned
  /// reference stays valid for the cache's lifetime. Thread-safe.
  [[nodiscard]] const PerTable& table(const McsInfo& m, int bits, double jitter_sigma_db = 0.0);

  [[nodiscard]] std::size_t size() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return tables_.size();
  }
  /// The (clamped) spatial correlation the tables were built for.
  [[nodiscard]] double spatial_correlation() const noexcept { return em_.spatial_correlation(); }
  /// Whether this cache answers for a channel of `spatial_correlation` —
  /// the one input that tells two caches' tables apart. A shared cache
  /// built for another channel answers with silently wrong PERs, so
  /// every consumer checks this before using one.
  [[nodiscard]] bool serves(double spatial_correlation) const noexcept {
    return em_.spatial_correlation() == ErrorModel(spatial_correlation).spatial_correlation();
  }

 private:
  ErrorModel em_;
  mutable std::mutex mu_;
  std::map<std::tuple<int, int, double>, PerTable> tables_;
};

}  // namespace skyferry::phy
