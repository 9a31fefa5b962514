// Pluggable link backends: "now, later — or on which link?"
//
// The paper's delayed-gratification tradeoff assumes one 802.11n
// air-to-ground burst link. The multi-connectivity measurement papers
// (PAPERS.md) show real UAVs also carry cellular (rate floor at long
// range, per-session latency), aerial mesh (hop-count-dependent rate)
// and LEO (high latency, weather-driven availability) links with wildly
// different profiles. `LinkBackend` abstracts what the decision and
// simulation layers need from any of them:
//
//   - a decision-layer rate curve s(d), non-increasing in distance (a
//     plain switch over the backend kind; the 802.11n curve is
//     core::paper_log_rate_bps, the expression core::PaperLogThroughput
//     evaluates, so a single-backend configuration is bit-identical to
//     the legacy path);
//   - a session latency (setup + half-RTT) and an outage process
//     (link::OutageConfig) for the availability discount;
//   - an SNR→PER curve served through the phy::PerTableCache fast path,
//     so mac::LinkFidelity::kAggregate carries over to every backend;
//   - `make_session()`: a seeded transfer simulator. The 802.11n
//     backend's session IS a mac::LinkSimulator (same config, same
//     seed, same RNG stream — the differential suite pins this
//     bit-identically); the other backends run a frame-burst ARQ loop
//     gated by their outage process.
//
// Configs are plain data with a validate() that refuses
// NaN/Inf/negative rates and latencies before any simulation starts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/throughput_model.h"
#include "fault/link_chaos.h"
#include "link/outage.h"
#include "mac/exchange.h"
#include "mac/link.h"
#include "phy/per.h"
#include "phy/per_table.h"
#include "sim/rng.h"

namespace skyferry::link {

/// Thrown by LinkBackendConfig::validate() on any malformed, non-finite,
/// or inconsistent configuration.
struct ConfigError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class BackendKind : std::uint8_t {
  kWifi80211n,  ///< the paper's 802.11n A2G burst link
  kCellular,    ///< LTE-style: rate floor at long range, session setup
  kMesh,        ///< aerial mesh: per-hop rate divided by hop count
  kLeo,         ///< LEO satellite: high RTT, outage-driven availability
};

/// One backend's full description: decision-layer rate curve, latency,
/// outage statistics, and the PHY curve its sessions sample. Flat plain
/// data — only the fields of the active `kind` shape its rate curve,
/// but validate() checks every field whatever the kind.
struct LinkBackendConfig {
  BackendKind kind{BackendKind::kWifi80211n};
  std::string name{"wifi-802.11n"};

  // -- decision-layer rate curve s(d) [bit/s] --------------------------------
  /// kWifi80211n: the paper's fit s(d) = wifi_scale·(wifi_a·log2(d) + wifi_b),
  /// clamped at ≥ 0 — core::paper_log_rate_bps, shared with
  /// core::PaperLogThroughput so the single-backend decision path stays
  /// bit-identical to the legacy one. wifi_a ≤ 0: the curve may not rise.
  double wifi_a{-5.56};
  double wifi_b{49.0};
  double wifi_scale{1e6};
  /// kCellular: peak/(1 + (d/half)²) floored at `floor` out to max range
  /// — the long-range trickle rate that never collapses to zero.
  double cell_peak_bps{30e6};
  double cell_floor_bps{2e6};
  double cell_half_m{1200.0};
  double cell_max_range_m{30e3};
  /// kMesh: per-hop airtime is shared, so s(d) = hop_rate / hops(d) with
  /// hops(d) = ceil(d / hop_m), dead beyond max_hops.
  double mesh_hop_rate_bps{18e6};
  double mesh_hop_m{400.0};
  int mesh_max_hops{6};
  /// kLeo: flat rate wherever the constellation covers (range ~ infinite
  /// for mission geometry); what varies is availability, not distance.
  double leo_rate_bps{4e6};
  double leo_max_range_m{2e6};

  /// Anti-collision floor: s(d) saturates below this distance.
  double min_distance_m{20.0};

  // -- latency and availability ----------------------------------------------
  double session_setup_s{0.0};  ///< per-session attach/bearer setup
  double rtt_s{0.0};            ///< round-trip time (ARQ turnaround)
  OutageConfig outage{};        ///< long-run availability statistics

  // -- session PHY curve (non-wifi backends) ---------------------------------
  // The generic frame-burst session draws frame fates from an SNR→PER
  // table built by the same phy::PerTableCache fast path the 802.11n
  // simulator uses: a log-distance SNR map feeds an MCS-indexed PER
  // curve, jitter-marginalized for LinkFidelity::kAggregate. The error
  // model is phy::ChannelConfig's default (spatial correlation 0.9).
  int mcs_index{3};
  int frame_bits{12000};
  double snr_ref_db{38.0};              ///< SNR at the reference distance
  double snr_ref_distance_m{100.0};
  double snr_slope_db_per_decade{20.0};  ///< log-distance path loss
  double snr_fade_sigma_db{2.0};         ///< per-burst aggregate fade
  double snr_jitter_db{2.0};             ///< per-frame jitter within a burst
  int frames_per_burst{32};              ///< ARQ burst size (one RTT each)
  mac::LinkFidelity fidelity{mac::LinkFidelity::kAggregate};

  // -- 802.11n full-MAC session (kWifi80211n only) ---------------------------
  /// Passed to mac::LinkSimulator verbatim (its constructor checks
  /// mac.shared_tables). The session runs mac::FixedMcs(mcs_index).
  mac::LinkConfig mac{};

  // -- presets ---------------------------------------------------------------
  static LinkBackendConfig wifi_80211n();
  static LinkBackendConfig cellular();
  static LinkBackendConfig mesh();
  static LinkBackendConfig leo();

  /// Throws ConfigError on NaN/Inf/negative rates or latencies, a wifi
  /// fit that rises with distance (wifi_a > 0; the joint election's
  /// bound needs every s(d) non-increasing), availability outside (0,1],
  /// or an out-of-range MCS.
  void validate() const;
};

/// One seeded transfer simulation over a backend. The 802.11n session
/// wraps mac::LinkSimulator bit-identically; generic sessions run a
/// frame-burst ARQ loop gated by the backend's outage process.
class LinkSession {
 public:
  virtual ~LinkSession() = default;

  /// Deliver exactly `payload_bytes`; stops at `max_duration_s` with
  /// completed=false. Same contract as mac::LinkSimulator::run_transfer.
  /// Prefer a finite `max_duration_s`; under an infinite one a session
  /// whose geometry stays out of range — or whose link is held down for
  /// an hour straight — bails out incomplete rather than looping
  /// forever. Incomplete runs carry a mac::IncompleteReason taxonomy
  /// tag (time limit vs out of range vs starved by outage vs setup
  /// failure) so chaos campaigns can tell the failure modes apart.
  virtual mac::LinkRunResult run_transfer(std::uint64_t payload_bytes, double max_duration_s,
                                          const mac::GeometryFn& geometry) = 0;

  /// Saturated (always-backlogged) traffic for `duration_s`.
  virtual mac::LinkRunResult run_saturated(double duration_s, const mac::GeometryFn& geometry) = 0;
};

/// A configured link backend: the decision layer reads its rate curve,
/// latency and availability; the simulation layer opens sessions.
class LinkBackend {
 public:
  virtual ~LinkBackend() = default;

  [[nodiscard]] const LinkBackendConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& name() const noexcept { return cfg_.name; }
  [[nodiscard]] BackendKind kind() const noexcept { return cfg_.kind; }

  /// Decision-layer rate curve s(d) [bit/s] — non-increasing in distance
  /// for every backend (property-tested), which link::optimize_multilink's
  /// pruning bound relies on.
  [[nodiscard]] double rate_bps(double distance_m) const noexcept;
  /// Largest distance with positive rate.
  [[nodiscard]] double max_range_m() const noexcept;

  /// Fixed per-session latency: setup plus half an RTT (first-byte
  /// delay). Always finite and ≥ 0.
  [[nodiscard]] double latency_s() const noexcept {
    return cfg_.session_setup_s + 0.5 * cfg_.rtt_s;
  }
  /// Stationary availability of the outage process, in (0, 1].
  [[nodiscard]] double availability() const noexcept { return cfg_.outage.availability; }

  /// Log-distance SNR map of the session PHY curve [dB].
  [[nodiscard]] double snr_db_at(double distance_m) const noexcept;

  /// The session PHY curve's jitter-marginalized PER table (mcs_index,
  /// frame_bits, snr_jitter_db), served from the phy::PerTableCache fast
  /// path. Thread-safe (the cache locks on build); callers in hot loops
  /// resolve it once.
  [[nodiscard]] const phy::PerTable& frame_table() const;
  /// Frame error rate at raw SNR [dB] from frame_table() — non-increasing
  /// in SNR (property-tested).
  [[nodiscard]] double frame_per(double snr_db) const { return frame_table().per(snr_db); }

  /// A seeded transfer session. Sessions derived from distinct seeds
  /// draw independent streams; same seed → bit-identical run.
  [[nodiscard]] virtual std::unique_ptr<LinkSession> make_session(std::uint64_t seed) const = 0;

  /// A chaos-overlaid session: `chaos` (fault/link_chaos.h) layers
  /// seeded blackouts, degradation epochs and setup failures on top of
  /// the backend's own outage process, forked from the same `seed`. A
  /// disabled chaos config yields a session bit-identical to
  /// make_session(seed) — the chaos streams own separate forked RNGs,
  /// so the frame/fade stream is untouched either way. The 802.11n
  /// backend returns its plain full-MAC session here: its consumers
  /// (the fleet sweep, fault::MissionSim) apply chaos at the call site.
  [[nodiscard]] virtual std::unique_ptr<LinkSession> make_session(
      std::uint64_t seed, const fault::LinkChaosConfig& chaos) const {
    (void)chaos;
    return make_session(seed);
  }

 protected:
  explicit LinkBackend(LinkBackendConfig cfg);
  LinkBackendConfig cfg_;
  /// The PER tables of this backend's sessions.
  mutable phy::PerTableCache tables_;
};

inline double LinkBackend::rate_bps(double distance_m) const noexcept {
  switch (cfg_.kind) {
    case BackendKind::kWifi80211n:
      return core::paper_log_rate_bps(cfg_.wifi_a, cfg_.wifi_b, cfg_.wifi_scale,
                                      cfg_.min_distance_m, distance_m);
    case BackendKind::kCellular: {
      // peak/(1 + (d/half)²) floored at `floor` out to the cell range.
      const double d = std::max(distance_m, cfg_.min_distance_m);
      if (d > cfg_.cell_max_range_m) return 0.0;
      const double x = d / cfg_.cell_half_m;
      return std::max(cfg_.cell_peak_bps / (1.0 + x * x), cfg_.cell_floor_bps);
    }
    case BackendKind::kMesh: {
      // One shared channel per hop: hop rate / ceil(d / hop_m); routes
      // longer than max_hops do not form.
      const double d = std::max(distance_m, cfg_.min_distance_m);
      const double hops = std::max(std::ceil(d / cfg_.mesh_hop_m), 1.0);
      if (hops > static_cast<double>(cfg_.mesh_max_hops)) return 0.0;
      return cfg_.mesh_hop_rate_bps / hops;
    }
    case BackendKind::kLeo:
      // Flat wherever the constellation covers; availability is what varies.
      return distance_m > cfg_.leo_max_range_m ? 0.0 : cfg_.leo_rate_bps;
  }
  return 0.0;
}

inline double LinkBackend::max_range_m() const noexcept {
  switch (cfg_.kind) {
    case BackendKind::kWifi80211n:
      return core::paper_log_max_range_m(cfg_.wifi_a, cfg_.wifi_b);
    case BackendKind::kCellular:
      return cfg_.cell_max_range_m;
    case BackendKind::kMesh:
      return static_cast<double>(cfg_.mesh_max_hops) * cfg_.mesh_hop_m;
    case BackendKind::kLeo:
      return cfg_.leo_max_range_m;
  }
  return 0.0;
}

/// One frame-burst ARQ round of a non-802.11n backend: frames sent and
/// delivered, and what the round costs on air.
struct BurstRound {
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  double bits{0.0};  ///< sent * frame_bits
  double rate_bps{0.0};
  double rtt_s{0.0};

  /// Serialization at the rate scaled by `rate_scale` (a degradation
  /// epoch's slowdown, in (0, 1]) plus one RTT of ARQ turnaround.
  [[nodiscard]] double airtime_s(double rate_scale = 1.0) const noexcept {
    return bits / (rate_bps * rate_scale) + rtt_s;
  }
};

/// The frame-burst round every non-802.11n transfer runs
/// (link::GenericSession and fleet::FleetEngine): one aggregate fade
/// N(snr_mean_db, snr_fade_sigma_db) over the burst, then `frames`
/// frame fates drawn from `errors` (resolved once by the caller).
[[nodiscard]] BurstRound burst_round(const LinkBackendConfig& cfg, std::uint64_t frames,
                                     double snr_mean_db, double rate_bps,
                                     const mac::FrameErrors& errors, sim::Rng& rng);

/// Build (and validate) a backend from its config. Throws ConfigError
/// on anything validate() rejects.
[[nodiscard]] std::unique_ptr<LinkBackend> make_backend(LinkBackendConfig cfg);

}  // namespace skyferry::link
