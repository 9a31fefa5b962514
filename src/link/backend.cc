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

// ---- decision-layer rate curves -------------------------------------------

/// Cellular: peak/(1 + (d/half)^2) floored at `floor` out to the cell
/// range — the long-range trickle rate that never collapses to zero
/// inside coverage.
class CellularThroughput final : public core::ThroughputModel {
 public:
  explicit CellularThroughput(const LinkBackendConfig& c) noexcept
      : peak_(c.cell_peak_bps), floor_(c.cell_floor_bps), half_(c.cell_half_m),
        range_(c.cell_max_range_m), min_d_(c.min_distance_m), name_(c.name) {}

  [[nodiscard]] double throughput_bps(double distance_m) const noexcept override {
    const double d = std::max(distance_m, min_d_);
    if (d > range_) return 0.0;
    const double x = d / half_;
    return std::max(peak_ / (1.0 + x * x), floor_);
  }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] double max_range_m() const noexcept override { return range_; }

 private:
  double peak_, floor_, half_, range_, min_d_;
  std::string name_;
};

/// Aerial mesh: one shared channel per hop, so the end-to-end rate is
/// the per-hop rate divided by the hop count ceil(d / hop_m); routes
/// longer than max_hops do not form.
class MeshThroughput final : public core::ThroughputModel {
 public:
  explicit MeshThroughput(const LinkBackendConfig& c) noexcept
      : hop_rate_(c.mesh_hop_rate_bps), hop_m_(c.mesh_hop_m), max_hops_(c.mesh_max_hops),
        min_d_(c.min_distance_m), name_(c.name) {}

  [[nodiscard]] double throughput_bps(double distance_m) const noexcept override {
    const double d = std::max(distance_m, min_d_);
    const double hops = std::max(std::ceil(d / hop_m_), 1.0);
    if (hops > static_cast<double>(max_hops_)) return 0.0;
    return hop_rate_ / hops;
  }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] double max_range_m() const noexcept override {
    return static_cast<double>(max_hops_) * hop_m_;
  }

 private:
  double hop_rate_, hop_m_;
  int max_hops_;
  double min_d_;
  std::string name_;
};

/// LEO: a flat rate wherever the constellation covers — distance to the
/// ground station is irrelevant at mission geometry; availability (the
/// outage process) is what varies.
class LeoThroughput final : public core::ThroughputModel {
 public:
  explicit LeoThroughput(const LinkBackendConfig& c) noexcept
      : rate_(c.leo_rate_bps), range_(c.leo_max_range_m), name_(c.name) {}

  [[nodiscard]] double throughput_bps(double distance_m) const noexcept override {
    return distance_m > range_ ? 0.0 : rate_;
  }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] double max_range_m() const noexcept override { return range_; }

 private:
  double rate_, range_;
  std::string name_;
};

// ---- sessions --------------------------------------------------------------

std::unique_ptr<mac::RateController> make_wifi_controller(const LinkBackendConfig& cfg,
                                                          std::uint64_t seed) {
  switch (cfg.wifi_rate_control) {
    case WifiRateControl::kFixedMcs:
      return std::make_unique<mac::FixedMcs>(cfg.mcs_index);
    case WifiRateControl::kArf:
      return std::make_unique<mac::ArfRate>(mac::ArfConfig{}, cfg.mac.channel.width,
                                            cfg.mac.channel.gi);
    case WifiRateControl::kMinstrel:
      break;
  }
  mac::MinstrelConfig mc;
  mc.timing = cfg.mac.timing;
  mc.ampdu = cfg.mac.ampdu;
  mc.mpdu = cfg.mac.mpdu;
  mc.width = cfg.mac.channel.width;
  mc.gi = cfg.mac.channel.gi;
  return std::make_unique<mac::MinstrelHt>(mc, sim::derive_seed(seed, "minstrel"));
}

/// The 802.11n session IS the legacy simulator: same config, same seed,
/// same RNG stream consumption — the differential suite pins run
/// results bit-identical to a directly constructed mac::LinkSimulator.
class WifiSession final : public LinkSession {
 public:
  WifiSession(const LinkBackendConfig& cfg, std::uint64_t seed)
      : rc_(make_wifi_controller(cfg, seed)), sim_(cfg.mac, *rc_, seed) {}

  mac::LinkRunResult run_transfer(std::uint64_t payload_bytes, double max_duration_s,
                                  const mac::GeometryFn& geometry) override {
    return sim_.run_transfer(payload_bytes, max_duration_s, geometry);
  }
  mac::LinkRunResult run_saturated(double duration_s, const mac::GeometryFn& geometry) override {
    return sim_.run_saturated(duration_s, geometry);
  }

 private:
  std::unique_ptr<mac::RateController> rc_;
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
        em_(cfg_.error, cfg_.spatial_correlation),
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
  explicit WifiBackend(LinkBackendConfig cfg)
      : LinkBackend(std::move(cfg)),
        model_(cfg_.wifi_a, cfg_.wifi_b, cfg_.name, cfg_.wifi_scale, cfg_.min_distance_m) {}

  [[nodiscard]] const core::ThroughputModel& throughput() const noexcept override {
    return model_;
  }
  using LinkBackend::make_session;
  [[nodiscard]] std::unique_ptr<LinkSession> make_session(std::uint64_t seed) const override {
    return std::make_unique<WifiSession>(cfg_, seed);
  }

 private:
  core::PaperLogThroughput model_;
};

class GenericBackend final : public LinkBackend {
 public:
  GenericBackend(LinkBackendConfig cfg, std::unique_ptr<core::ThroughputModel> model)
      : LinkBackend(std::move(cfg)), model_(std::move(model)) {}

  [[nodiscard]] const core::ThroughputModel& throughput() const noexcept override {
    return *model_;
  }
  using LinkBackend::make_session;
  [[nodiscard]] std::unique_ptr<LinkSession> make_session(std::uint64_t seed) const override {
    return std::make_unique<GenericSession>(*this, seed);
  }
  [[nodiscard]] std::unique_ptr<LinkSession> make_session(
      std::uint64_t seed, const fault::LinkChaosConfig& chaos) const override {
    return std::make_unique<GenericSession>(*this, seed, chaos);
  }

 private:
  std::unique_ptr<core::ThroughputModel> model_;
};

}  // namespace

LinkBackend::LinkBackend(LinkBackendConfig cfg)
    : cfg_(std::move(cfg)),
      tables_(cfg_.shared_tables
                  ? cfg_.shared_tables
                  : std::make_shared<phy::PerTableCache>(
                        phy::ErrorModel(cfg_.error, cfg_.spatial_correlation), cfg_.per_table)) {}

const phy::PerTable& LinkBackend::frame_table() const {
  return tables_->table(phy::mcs(cfg_.mcs_index), cfg_.frame_bits, cfg_.snr_jitter_db);
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
  req(finite(spatial_correlation) && spatial_correlation >= 0.0 && spatial_correlation <= 1.0,
      "spatial_correlation must be in [0, 1]");
  req(finite(per_table.snr_min_db) && finite(per_table.snr_max_db) &&
          per_table.snr_min_db < per_table.snr_max_db,
      "per_table SNR range must be finite with min < max");
  req(finite(per_table.step_db) && per_table.step_db > 0.0,
      "per_table.step_db must be finite and > 0");
  for (double g : {error.coding_gain_half_db, error.coding_gain_two_thirds_db,
                   error.coding_gain_three_quarters_db, error.coding_gain_five_sixths_db,
                   error.stbc_gain_db, error.sdm_power_split_db,
                   error.sdm_max_correlation_penalty_db}) {
    req(finite(g), "error-model gains must be finite");
  }
  if (shared_tables) {
    req(shared_tables->fingerprint() ==
            phy::table_fingerprint(error, spatial_correlation, per_table),
        "shared_tables was built for a different (error model, spatial correlation, SNR grid) "
        "— a mismatched cache answers with silently wrong PERs");
  }
  if (kind == BackendKind::kWifi80211n && mac.shared_tables) {
    req(mac.shared_tables->fingerprint() ==
            phy::table_fingerprint(mac.error, mac.channel.spatial_correlation, mac.per_table),
        "mac.shared_tables does not match mac (error, channel.spatial_correlation, per_table) "
        "— build it with mac::make_shared_per_tables on this config");
  }
}

std::unique_ptr<LinkBackend> make_backend(LinkBackendConfig cfg) {
  cfg.validate();
  switch (cfg.kind) {
    case BackendKind::kWifi80211n:
      return std::make_unique<WifiBackend>(std::move(cfg));
    case BackendKind::kCellular: {
      auto model = std::make_unique<CellularThroughput>(cfg);
      return std::make_unique<GenericBackend>(std::move(cfg), std::move(model));
    }
    case BackendKind::kMesh: {
      auto model = std::make_unique<MeshThroughput>(cfg);
      return std::make_unique<GenericBackend>(std::move(cfg), std::move(model));
    }
    case BackendKind::kLeo: {
      auto model = std::make_unique<LeoThroughput>(cfg);
      return std::make_unique<GenericBackend>(std::move(cfg), std::move(model));
    }
  }
  throw ConfigError("LinkBackendConfig: unknown backend kind");
}

}  // namespace skyferry::link
