// Property suite over every backend kind: rate curves non-increasing in
// distance, PER non-increasing in SNR and non-decreasing in frame size,
// latency finite and non-negative, and the outage process hitting its
// configured stationary availability (chi-square over 10^3 seeds).
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "link/backend.h"
#include "link/outage.h"
#include "support/proptest.h"

namespace skyferry {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<link::LinkBackendConfig> preset_configs() {
  return {link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
          link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()};
}

TEST(BackendProperty, RateNonIncreasingInDistance) {
  for (const link::LinkBackendConfig& cfg : preset_configs()) {
    const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
    SCOPED_TRACE(bk->name());
    const double span = std::min(bk->max_range_m() * 1.2, 5e4);
    FOR_ALL(300, 0xD157ULL, g) {
      const double d1 = g.uniform(1.0, span);
      const double d2 = d1 + g.uniform(0.0, span - d1 + 1.0);
      EXPECT_GE(bk->rate_bps(d1), bk->rate_bps(d2))
          << "rate must not increase with distance: d1=" << d1 << " d2=" << d2;
    }
    // Past max range the link is dead; inside it the rate is finite.
    EXPECT_EQ(bk->rate_bps(bk->max_range_m() * 1.5), 0.0);
    EXPECT_TRUE(std::isfinite(bk->rate_bps(cfg.min_distance_m)));
  }
}

/// A random valid config of `kind`: rate parameters drawn across orders
/// of magnitude, and a min-distance clamp that may sit past a mesh hop
/// boundary or the cellular half-rate distance.
link::LinkBackendConfig random_config(link::BackendKind kind, proptest::Case& g) {
  link::LinkBackendConfig c;
  switch (kind) {
    case link::BackendKind::kWifi80211n:
      c = link::LinkBackendConfig::wifi_80211n();
      c.wifi_a = g.chance(0.1) ? 0.0 : -g.uniform(0.1, 20.0);
      c.wifi_b = g.uniform(-10.0, 120.0);
      c.wifi_scale = std::exp(g.uniform(std::log(1e3), std::log(1e8)));
      break;
    case link::BackendKind::kCellular:
      c = link::LinkBackendConfig::cellular();
      c.cell_peak_bps = std::exp(g.uniform(std::log(1e5), std::log(1e9)));
      c.cell_floor_bps = g.chance(0.2) ? 0.0 : c.cell_peak_bps * g.uniform(0.0, 1.0);
      c.cell_half_m = g.uniform(10.0, 5000.0);
      c.cell_max_range_m = g.uniform(50.0, 20000.0);
      break;
    case link::BackendKind::kMesh:
      c = link::LinkBackendConfig::mesh();
      c.mesh_hop_rate_bps = std::exp(g.uniform(std::log(1e5), std::log(1e9)));
      c.mesh_hop_m = g.uniform(5.0, 2000.0);
      c.mesh_max_hops = g.uniform_int(1, 12);
      break;
    case link::BackendKind::kLeo:
      c = link::LinkBackendConfig::leo();
      c.leo_rate_bps = std::exp(g.uniform(std::log(1e5), std::log(1e9)));
      c.leo_max_range_m = g.uniform(50.0, 20000.0);
      break;
  }
  c.min_distance_m = std::exp(g.uniform(std::log(0.1), std::log(500.0)));
  return c;
}

/// The invariant link::optimize_multilink's pruning bound rests on: for
/// random valid configs of every kind, s(d) never rises along a fine
/// sweep that also steps across each kink of the curve one ulp at a time
/// (the min-distance clamp, every mesh hop boundary, the cellular and
/// LEO range edges, the wifi zero crossing).
TEST(BackendProperty, RandomConfigRateNonIncreasingAcrossKinks) {
  constexpr link::BackendKind kKinds[] = {link::BackendKind::kWifi80211n,
                                          link::BackendKind::kCellular, link::BackendKind::kMesh,
                                          link::BackendKind::kLeo};
  FOR_ALL(400, 0x7A11ULL, g) {
    const link::LinkBackendConfig cfg = random_config(kKinds[g.uniform_int(0, 3)], g);
    const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
    const double end = std::min(std::max(bk->max_range_m(), cfg.min_distance_m) * 1.5, 1e5);
    std::vector<double> kinks{cfg.min_distance_m, bk->max_range_m()};
    if (cfg.kind == link::BackendKind::kMesh) {
      for (int h = 1; h <= cfg.mesh_max_hops + 1; ++h) kinks.push_back(h * cfg.mesh_hop_m);
    }
    std::vector<double> xs;
    constexpr int kSteps = 2000;
    for (int i = 0; i <= kSteps; ++i) xs.push_back(end * i / kSteps);
    for (const double k : kinks) {
      double x = k;
      for (int u = 0; u < 3; ++u) x = std::nextafter(x, 0.0);
      for (int u = 0; u < 7; ++u, x = std::nextafter(x, kInf)) xs.push_back(x);
    }
    std::sort(xs.begin(), xs.end());
    double prev = bk->rate_bps(xs.front());
    for (const double x : xs) {
      const double r = bk->rate_bps(x);
      ASSERT_GE(r, 0.0) << "x=" << x;
      ASSERT_LE(r, prev) << cfg.name << ": rate rose at x=" << x;
      prev = r;
    }
  }
}

TEST(BackendProperty, FramePerMonotoneInSnr) {
  for (const link::LinkBackendConfig& cfg : preset_configs()) {
    const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
    SCOPED_TRACE(bk->name());
    FOR_ALL(200, 0x9E12ULL, g) {
      const double lo = g.uniform(-5.0, 45.0);
      const double hi = lo + g.uniform(0.0, 50.0 - lo);
      const double per_lo = bk->frame_per(lo);
      const double per_hi = bk->frame_per(hi);
      EXPECT_GE(per_lo, 0.0);
      EXPECT_LE(per_lo, 1.0);
      EXPECT_GE(per_lo + 1e-12, per_hi)
          << "PER must not increase with SNR: snr_lo=" << lo << " snr_hi=" << hi;
    }
  }
}

TEST(BackendProperty, FramePerMonotoneInFrameBits) {
  link::LinkBackendConfig small = link::LinkBackendConfig::cellular();
  small.frame_bits = 4'000;
  link::LinkBackendConfig big = small;
  big.frame_bits = 32'000;
  const std::unique_ptr<link::LinkBackend> bk_small = link::make_backend(small);
  const std::unique_ptr<link::LinkBackend> bk_big = link::make_backend(big);
  for (double snr = 0.0; snr <= 45.0; snr += 2.5) {
    EXPECT_LE(bk_small->frame_per(snr), bk_big->frame_per(snr) + 1e-9)
        << "longer frames must not be more reliable, snr=" << snr;
  }
}

TEST(BackendProperty, LatencyFiniteAndNonNegative) {
  for (const link::LinkBackendConfig& cfg : preset_configs()) {
    const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
    EXPECT_TRUE(std::isfinite(bk->latency_s())) << bk->name();
    EXPECT_GE(bk->latency_s(), 0.0) << bk->name();
  }
  FOR_ALL(100, 0x1A7EULL, g) {
    link::LinkBackendConfig cfg = link::LinkBackendConfig::leo();
    cfg.session_setup_s = g.uniform(0.0, 30.0);
    cfg.rtt_s = g.uniform(0.0, 3.0);
    const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
    EXPECT_TRUE(std::isfinite(bk->latency_s()));
    EXPECT_GE(bk->latency_s(), 0.0);
    EXPECT_EQ(bk->latency_s(), cfg.session_setup_s + 0.5 * cfg.rtt_s);
  }
}

/// The alternating-renewal process starts stationary, so P(up at t) ==
/// availability at *every* t. Pearson chi-square on up/down counts over
/// 10^3 independent seeds, 1 dof; 10.83 is the p = 0.001 critical value.
TEST(BackendProperty, OutageMatchesAvailabilityChiSquare) {
  const link::OutageConfig cfg{0.85, 45.0};
  constexpr int kSeeds = 1000;
  for (const double t : {0.0, 123.0, 2'000.0}) {
    int up = 0;
    for (int s = 0; s < kSeeds; ++s) {
      link::OutageProcess p(cfg, static_cast<std::uint64_t>(s));
      if (p.is_up(t)) ++up;
    }
    const double e_up = cfg.availability * kSeeds;
    const double e_down = (1.0 - cfg.availability) * kSeeds;
    const double o_up = up;
    const double o_down = kSeeds - up;
    const double chi2 = (o_up - e_up) * (o_up - e_up) / e_up +
                        (o_down - e_down) * (o_down - e_down) / e_down;
    EXPECT_LT(chi2, 10.83) << "t=" << t << " observed up fraction " << o_up / kSeeds;
  }
}

TEST(BackendProperty, OutageLongRunUpFractionMatchesAvailability) {
  const link::OutageConfig cfg{0.85, 45.0};
  link::OutageProcess p(cfg, 99);
  const double horizon = 1e6;
  const double frac = p.up_seconds(0.0, horizon) / horizon;
  EXPECT_NEAR(frac, cfg.availability, 0.02);
}

TEST(BackendProperty, AlwaysUpOutageNeverDrops) {
  link::OutageProcess p(link::OutageConfig{1.0, 30.0}, 5);
  for (double t = 0.0; t < 1e4; t += 997.0) EXPECT_TRUE(p.is_up(t));
  EXPECT_EQ(p.up_seconds(0.0, 1e4), 1e4);
}

/// An unbounded run against a geometry that never comes back in range
/// must terminate (incomplete) instead of idling forever: the session
/// caps continuous out-of-range idling when max_duration_s is infinite.
TEST(BackendProperty, UnboundedTransferOutOfRangeTerminates) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::mesh();
  const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
  const double far = bk->max_range_m() * 4.0;  // mesh routes never form here
  const mac::LinkRunResult r = bk->make_session(17)->run_transfer(
      1'000'000, std::numeric_limits<double>::infinity(), mac::static_geometry(far));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.payload_bits_delivered, 0u);
  EXPECT_TRUE(std::isfinite(r.duration_s));
}

/// The frame-burst kernel's contract: one fade draw, then the frame
/// fates from the resolved PER table; a degradation scale slows only
/// the serialization term, never the RTT.
TEST(BurstRound, FadeThenFrameFatesAndScaledSerialization) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::cellular();
  const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
  const mac::FrameErrors errors{&bk->frame_table(), nullptr, 0, 0.0};
  for (double snr_mean : {0.0, 8.0, 16.0}) {
    sim::Rng a(5), b(5);
    const link::BurstRound r = link::burst_round(cfg, 20, snr_mean, 4e6, errors, a);
    const double snr = snr_mean + b.gaussian(0.0, cfg.snr_fade_sigma_db);
    EXPECT_EQ(r.sent, 20u);
    EXPECT_EQ(r.delivered, b.binomial(20, 1.0 - bk->frame_per(snr))) << snr_mean;
    EXPECT_EQ(a.next_u64(), b.next_u64());
    const double bits = 20.0 * cfg.frame_bits;
    EXPECT_EQ(r.airtime_s(), bits / 4e6 + cfg.rtt_s);
    EXPECT_EQ(r.airtime_s(0.25), bits / (4e6 * 0.25) + cfg.rtt_s);
  }
}

}  // namespace
}  // namespace skyferry
