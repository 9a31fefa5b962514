#include "link/backend.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mac/rate_control.h"
#include "phy/mcs.h"
#include "sim/rng.h"

namespace skyferry::link {
namespace {

void req(bool ok, const std::string& what) {
  if (!ok) throw ConfigError("LinkBackendConfig: " + what);
}

bool finite(double v) noexcept { return std::isfinite(v); }

/// Spatial correlation of the generic backends' session error model
/// (phy::ChannelConfig's default).
constexpr double kSessionSpatialCorrelation = 0.9;

// ---- sessions --------------------------------------------------------------

/// The 802.11n session IS the legacy simulator: same config, same seed,
/// same RNG stream consumption — the differential suite pins run
/// results bit-identical to a directly constructed mac::LinkSimulator.
class WifiSession final : public LinkSession {
 public:
  WifiSession(const LinkBackendConfig& cfg, std::uint64_t seed)
      : rc_(cfg.mcs_index), sim_(cfg.mac, rc_, seed) {}

  mac::LinkRunResult run_transfer(std::uint64_t payload_bytes, double max_duration_s,
                                  const mac::GeometryFn& geometry) override {
    return sim_.run_transfer(payload_bytes, max_duration_s, geometry);
  }
  mac::LinkRunResult run_saturated(double duration_s, const mac::GeometryFn& geometry) override {
    return sim_.run_saturated(duration_s, geometry);
  }

 private:
  mac::FixedMcs rc_;
  mac::LinkSimulator sim_;
};

/// Frame-burst ARQ loop for cellular/mesh/LEO: each round sends up to
/// `frames_per_burst` frames at the decision-layer rate through
/// burst_round() (one aggregate fade; frame fates per the configured
/// fidelity — kAggregate: one Binomial from the jitter-marginalized PER
/// table, kPerMpdu: analytic PER per frame), pays one RTT of ARQ
/// turnaround, and stalls through outage segments. Lost frames stay in
/// the backlog. The backend must outlive the session.
class GenericSession final : public LinkSession {
 public:
  GenericSession(const LinkBackend& backend, std::uint64_t seed,
                 const fault::LinkChaosConfig& chaos = {})
      : bk_(backend),
        cfg_(backend.config()),
        em_(kSessionSpatialCorrelation),
        errors_{cfg_.fidelity == mac::LinkFidelity::kAggregate ? &backend.frame_table() : nullptr,
                &em_, cfg_.frame_bits, cfg_.snr_jitter_db},
        outage_(cfg_.outage, sim::derive_seed(seed, "outage")),
        rng_(sim::derive_seed(seed, "frames")),
        chaos_(chaos, sim::derive_seed(seed, "chaos")),
        chaos_on_(chaos.any()) {}

  mac::LinkRunResult run_transfer(std::uint64_t payload_bytes, double max_duration_s,
                                  const mac::GeometryFn& geometry) override {
    return run(payload_bytes * 8ULL, max_duration_s, geometry);
  }
  mac::LinkRunResult run_saturated(double duration_s, const mac::GeometryFn& geometry) override {
    return run(0, duration_s, geometry);
  }

 private:
  mac::LinkRunResult run(std::uint64_t bits_needed, double time_limit_s,
                         const mac::GeometryFn& geometry) {
    const std::uint64_t frame_bits = static_cast<std::uint64_t>(cfg_.frame_bits);
    const bool saturated = bits_needed == 0;
    // Callers normally bound the run with a finite time limit. Under an
    // infinite one, a geometry that never comes back in range — or a
    // link held down without a break — would otherwise idle forever;
    // cap continuous idling and bail out incomplete with the matching
    // taxonomy tag instead.
    constexpr double kMaxOutOfRangeIdleS = 3600.0;
    constexpr double kMaxLinkDownIdleS = 3600.0;
    constexpr int kMaxSetupAttempts = 8;
    double out_of_range_since = -1.0;
    double down_since = -1.0;
    bool clipped_in_stall = false;

    mac::LinkRunResult r;
    double t = cfg_.session_setup_s;
    std::uint64_t delivered_bits = 0;

    // Injected session-setup failures: each failed attach burns one
    // setup interval plus an RTT of signaling before the retry.
    if (chaos_on_ && chaos_.config().setup_fail_p > 0.0) {
      int attempts = 0;
      while (chaos_.draw_setup_failure()) {
        if (++attempts >= kMaxSetupAttempts) {
          r.completed = false;
          r.incomplete_reason = mac::IncompleteReason::kSessionSetupFailed;
          r.duration_s = std::min(t, time_limit_s);
          return r;
        }
        t += cfg_.session_setup_s + cfg_.rtt_s;
      }
    }

    while (saturated || delivered_bits < bits_needed) {
      if (t >= time_limit_s) {
        r.completed = saturated;
        if (!r.completed)
          r.incomplete_reason = clipped_in_stall ? mac::IncompleteReason::kStarvedByOutage
                                                 : mac::IncompleteReason::kTimeLimit;
        t = time_limit_s;
        break;
      }
      const bool outage_down = !outage_.is_up(t);
      if (outage_down || (chaos_on_ && chaos_.blacked_out(t))) {
        if (down_since < 0.0) down_since = t;
        const double end = outage_down ? outage_.segment_end_s(t) : chaos_.blackout_end_s(t);
        if (!std::isfinite(time_limit_s) && end - down_since > kMaxLinkDownIdleS) {
          r.completed = false;
          r.incomplete_reason = mac::IncompleteReason::kStarvedByOutage;
          t = down_since + kMaxLinkDownIdleS;
          break;
        }
        if (end >= time_limit_s) clipped_in_stall = true;
        t = std::min(end, time_limit_s);
        continue;
      }
      down_since = -1.0;
      const mac::Geometry g = geometry(t);
      const double rate = bk_.rate_bps(g.distance_m);
      if (rate <= 0.0) {
        if (out_of_range_since < 0.0) out_of_range_since = t;
        if (!std::isfinite(time_limit_s) && t - out_of_range_since > kMaxOutOfRangeIdleS) {
          r.completed = false;
          r.incomplete_reason = mac::IncompleteReason::kOutOfRange;
          break;
        }
        // Out of range; idle one ARQ turnaround and let geometry move.
        t += std::max(cfg_.rtt_s, 1e-2);
        continue;
      }
      out_of_range_since = -1.0;
      std::uint64_t n = static_cast<std::uint64_t>(cfg_.frames_per_burst);
      if (!saturated) {
        const std::uint64_t backlog = (bits_needed - delivered_bits + frame_bits - 1) / frame_bits;
        n = std::min(n, backlog);
      }
      const BurstRound round =
          burst_round(cfg_, n, bk_.snr_db_at(g.distance_m), rate, errors_, rng_);
      r.mpdus_attempted += round.sent;
      r.mpdus_delivered += round.delivered;
      ++r.exchanges;
      delivered_bits += round.delivered * frame_bits;
      // A degradation epoch stretches the burst airtime by 1/scale.
      t += round.airtime_s(chaos_on_ ? chaos_.rate_scale(t) : 1.0);
    }

    r.duration_s = t;
    r.payload_bits_delivered = saturated ? delivered_bits : std::min(delivered_bits, bits_needed);
    return r;
  }

  const LinkBackend& bk_;
  const LinkBackendConfig& cfg_;
  phy::ErrorModel em_;
  mac::FrameErrors errors_;
  OutageProcess outage_;
  sim::Rng rng_;
  fault::LinkChaosStream chaos_;
  bool chaos_on_;
};

// ---- backends --------------------------------------------------------------

class WifiBackend final : public LinkBackend {
 public:
  explicit WifiBackend(LinkBackendConfig cfg) : LinkBackend(std::move(cfg)) {}

  using LinkBackend::make_session;
  [[nodiscard]] std::unique_ptr<LinkSession> make_session(std::uint64_t seed) const override {
    return std::make_unique<WifiSession>(cfg_, seed);
  }
};

class GenericBackend final : public LinkBackend {
 public:
  explicit GenericBackend(LinkBackendConfig cfg) : LinkBackend(std::move(cfg)) {}

  using LinkBackend::make_session;
  [[nodiscard]] std::unique_ptr<LinkSession> make_session(std::uint64_t seed) const override {
    return std::make_unique<GenericSession>(*this, seed);
  }
  [[nodiscard]] std::unique_ptr<LinkSession> make_session(
      std::uint64_t seed, const fault::LinkChaosConfig& chaos) const override {
    return std::make_unique<GenericSession>(*this, seed, chaos);
  }
};

}  // namespace

LinkBackend::LinkBackend(LinkBackendConfig cfg)
    : cfg_(std::move(cfg)), tables_(kSessionSpatialCorrelation) {}

const phy::PerTable& LinkBackend::frame_table() const {
  return tables_.table(phy::mcs(cfg_.mcs_index), cfg_.frame_bits, cfg_.snr_jitter_db);
}

BurstRound burst_round(const LinkBackendConfig& cfg, std::uint64_t frames, double snr_mean_db,
                       double rate_bps, const mac::FrameErrors& errors, sim::Rng& rng) {
  const double snr = snr_mean_db + rng.gaussian(0.0, cfg.snr_fade_sigma_db);
  const std::uint64_t delivered = errors.delivered(cfg.mcs_index, frames, snr, rng);
  return {frames, delivered, static_cast<double>(frames * static_cast<std::uint64_t>(cfg.frame_bits)),
          rate_bps, cfg.rtt_s};
}

double LinkBackend::snr_db_at(double distance_m) const noexcept {
  const double d = std::max(distance_m, cfg_.min_distance_m);
  return cfg_.snr_ref_db -
         cfg_.snr_slope_db_per_decade * std::log10(d / cfg_.snr_ref_distance_m);
}

LinkBackendConfig LinkBackendConfig::wifi_80211n() {
  LinkBackendConfig c;  // defaults are the paper's airplane 802.11n link
  return c;
}

LinkBackendConfig LinkBackendConfig::cellular() {
  LinkBackendConfig c;
  c.kind = BackendKind::kCellular;
  c.name = "cellular";
  // LTE-ish A2G: multi-second bearer setup, tens of ms RTT, near-always
  // up; the rate floor is what makes the trickle-now path worth it.
  c.session_setup_s = 2.0;
  c.rtt_s = 0.05;
  c.outage = {0.99, 20.0};
  c.mcs_index = 2;
  c.snr_ref_db = 30.0;
  c.snr_slope_db_per_decade = 18.0;
  return c;
}

LinkBackendConfig LinkBackendConfig::mesh() {
  LinkBackendConfig c;
  c.kind = BackendKind::kMesh;
  c.name = "mesh";
  c.rtt_s = 0.008;  // per-hop forwarding adds up, still LAN-ish
  c.outage = {0.97, 10.0};
  c.mcs_index = 3;
  return c;
}

LinkBackendConfig LinkBackendConfig::leo() {
  LinkBackendConfig c;
  c.kind = BackendKind::kLeo;
  c.name = "leo";
  // High RTT, handover/weather outages: availability well below 1 is
  // the defining property, not the rate.
  c.session_setup_s = 5.0;
  c.rtt_s = 0.6;
  c.outage = {0.85, 45.0};
  c.mcs_index = 1;
  c.snr_ref_db = 25.0;
  c.snr_slope_db_per_decade = 0.0;  // distance to gateway ~ constant
  return c;
}

void LinkBackendConfig::validate() const {
  req(!name.empty(), "name must be non-empty");
  req(finite(wifi_a) && finite(wifi_b), "wifi fit coefficients must be finite");
  req(wifi_a <= 0.0, "wifi_a must be <= 0 (the wifi rate may not rise with distance)");
  req(finite(wifi_scale) && wifi_scale > 0.0, "wifi_scale must be finite and > 0");
  req(finite(cell_peak_bps) && cell_peak_bps > 0.0, "cell_peak_bps must be finite and > 0");
  req(finite(cell_floor_bps) && cell_floor_bps >= 0.0,
      "cell_floor_bps must be finite and >= 0");
  req(cell_floor_bps <= cell_peak_bps, "cell_floor_bps must not exceed cell_peak_bps");
  req(finite(cell_half_m) && cell_half_m > 0.0, "cell_half_m must be finite and > 0");
  req(finite(cell_max_range_m) && cell_max_range_m > 0.0,
      "cell_max_range_m must be finite and > 0");
  req(finite(mesh_hop_rate_bps) && mesh_hop_rate_bps > 0.0,
      "mesh_hop_rate_bps must be finite and > 0");
  req(finite(mesh_hop_m) && mesh_hop_m > 0.0, "mesh_hop_m must be finite and > 0");
  req(mesh_max_hops >= 1, "mesh_max_hops must be >= 1");
  req(finite(leo_rate_bps) && leo_rate_bps > 0.0, "leo_rate_bps must be finite and > 0");
  req(finite(leo_max_range_m) && leo_max_range_m > 0.0,
      "leo_max_range_m must be finite and > 0");
  req(finite(min_distance_m) && min_distance_m > 0.0, "min_distance_m must be finite and > 0");
  req(finite(session_setup_s) && session_setup_s >= 0.0,
      "session_setup_s must be finite and >= 0");
  req(finite(rtt_s) && rtt_s >= 0.0, "rtt_s must be finite and >= 0");
  req(finite(outage.availability) && outage.availability > 0.0 && outage.availability <= 1.0,
      "outage.availability must be in (0, 1]");
  if (!outage.always_up()) {
    req(finite(outage.mean_outage_s) && outage.mean_outage_s > 0.0,
        "outage.mean_outage_s must be finite and > 0 when availability < 1");
  }
  req(mcs_index >= 0 && mcs_index < phy::kNumMcs, "mcs_index out of range");
  req(frame_bits > 0, "frame_bits must be > 0");
  req(frames_per_burst >= 1, "frames_per_burst must be >= 1");
  req(finite(snr_ref_db), "snr_ref_db must be finite");
  req(finite(snr_ref_distance_m) && snr_ref_distance_m > 0.0,
      "snr_ref_distance_m must be finite and > 0");
  req(finite(snr_slope_db_per_decade) && snr_slope_db_per_decade >= 0.0,
      "snr_slope_db_per_decade must be finite and >= 0");
  req(finite(snr_fade_sigma_db) && snr_fade_sigma_db >= 0.0,
      "snr_fade_sigma_db must be finite and >= 0");
  req(finite(snr_jitter_db) && snr_jitter_db >= 0.0, "snr_jitter_db must be finite and >= 0");
}

std::unique_ptr<LinkBackend> make_backend(LinkBackendConfig cfg) {
  cfg.validate();
  switch (cfg.kind) {
    case BackendKind::kWifi80211n:
      return std::make_unique<WifiBackend>(std::move(cfg));
    case BackendKind::kCellular:
    case BackendKind::kMesh:
    case BackendKind::kLeo:
      return std::make_unique<GenericBackend>(std::move(cfg));
  }
  throw ConfigError("LinkBackendConfig: unknown backend kind");
}

}  // namespace skyferry::link
