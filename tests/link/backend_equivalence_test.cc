// Differential suite, part 1: the 802.11n backend is a *wrapper*, not a
// reimplementation. Routing a transfer through link::LinkBackend /
// LinkSession must produce the bit-identical mac::LinkRunResult — same
// delivered bytes, same exchange timings, same RNG stream consumption —
// as constructing mac::LinkSimulator directly with the same config and
// seed, across both fidelity modes and any thread count.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "link/backend.h"
#include "mac/link.h"
#include "mac/rate_control.h"
#include "phy/mcs.h"

namespace skyferry {
namespace {

constexpr std::uint64_t kPayloadBytes = 200'000;
constexpr double kMaxDuration = 60.0;

/// Field-by-field bitwise comparison of two run results (EXPECT_EQ on
/// doubles is exact equality — that is the point of the suite).
void expect_identical(const mac::LinkRunResult& a, const mac::LinkRunResult& b) {
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.payload_bits_delivered, b.payload_bits_delivered);
  EXPECT_EQ(a.mpdus_attempted, b.mpdus_attempted);
  EXPECT_EQ(a.mpdus_delivered, b.mpdus_delivered);
  EXPECT_EQ(a.exchanges, b.exchanges);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].t_s, b.samples[i].t_s);
    EXPECT_EQ(a.samples[i].mbps, b.samples[i].mbps);
  }
  ASSERT_EQ(a.transfer_curve_mb.size(), b.transfer_curve_mb.size());
  for (std::size_t i = 0; i < a.transfer_curve_mb.size(); ++i) {
    EXPECT_EQ(a.transfer_curve_mb[i].t_s, b.transfer_curve_mb[i].t_s);
    EXPECT_EQ(a.transfer_curve_mb[i].mbps, b.transfer_curve_mb[i].mbps);
  }
}

link::LinkBackendConfig wifi_config(mac::LinkFidelity fidelity) {
  link::LinkBackendConfig cfg = link::LinkBackendConfig::wifi_80211n();
  cfg.mac.fidelity = fidelity;
  return cfg;
}

/// The legacy direct path: construct the controller and the simulator by
/// hand, exactly as every pre-multilink caller does.
mac::LinkRunResult legacy_transfer(const link::LinkBackendConfig& cfg, std::uint64_t seed,
                                   double distance_m) {
  mac::FixedMcs rc(cfg.mcs_index);
  mac::LinkSimulator sim(cfg.mac, rc, seed);
  return sim.run_transfer(kPayloadBytes, kMaxDuration, mac::static_geometry(distance_m));
}

mac::LinkRunResult backend_transfer(const link::LinkBackendConfig& cfg, std::uint64_t seed,
                                    double distance_m) {
  const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
  return bk->make_session(seed)->run_transfer(kPayloadBytes, kMaxDuration,
                                              mac::static_geometry(distance_m));
}

TEST(BackendEquivalence, WifiTransferMatchesLegacyPerMpdu) {
  const link::LinkBackendConfig cfg = wifi_config(mac::LinkFidelity::kPerMpdu);
  for (const std::uint64_t seed : {1ULL, 42ULL, 9001ULL}) {
    for (const double d : {60.0, 120.0}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " d=" + std::to_string(d));
      expect_identical(backend_transfer(cfg, seed, d), legacy_transfer(cfg, seed, d));
    }
  }
}

TEST(BackendEquivalence, WifiTransferMatchesLegacyAggregate) {
  const link::LinkBackendConfig cfg = wifi_config(mac::LinkFidelity::kAggregate);
  for (const std::uint64_t seed : {1ULL, 42ULL, 9001ULL}) {
    for (const double d : {60.0, 120.0}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " d=" + std::to_string(d));
      expect_identical(backend_transfer(cfg, seed, d), legacy_transfer(cfg, seed, d));
    }
  }
}

TEST(BackendEquivalence, WifiSaturatedMatchesLegacy) {
  const link::LinkBackendConfig cfg = wifi_config(mac::LinkFidelity::kAggregate);
  mac::FixedMcs rc(cfg.mcs_index);
  mac::LinkSimulator sim(cfg.mac, rc, 5);
  const mac::LinkRunResult legacy = sim.run_saturated(3.0, mac::static_geometry(90.0));
  const mac::LinkRunResult wrapped =
      link::make_backend(cfg)->make_session(5)->run_saturated(3.0, mac::static_geometry(90.0));
  expect_identical(wrapped, legacy);
}

/// The wifi session runs FixedMcs(mcs_index) at every index the config
/// accepts, not only the preset's: each one matches the legacy path with
/// that index, in both fidelity modes.
class WifiEveryMcs : public ::testing::TestWithParam<int> {};

TEST_P(WifiEveryMcs, SessionMatchesLegacyFixedMcs) {
  for (const mac::LinkFidelity f : {mac::LinkFidelity::kPerMpdu, mac::LinkFidelity::kAggregate}) {
    link::LinkBackendConfig cfg = wifi_config(f);
    cfg.mcs_index = GetParam();
    SCOPED_TRACE(f == mac::LinkFidelity::kPerMpdu ? "per-mpdu" : "aggregate");
    expect_identical(backend_transfer(cfg, 23, 80.0), legacy_transfer(cfg, 23, 80.0));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMcs, WifiEveryMcs, ::testing::Range(0, phy::kNumMcs));

/// RNG stream consumption: a session is one evolving stream, so the
/// *second* transfer on the same session only matches the legacy path if
/// the first consumed exactly the same number of draws.
TEST(BackendEquivalence, WifiRngStreamConsumptionMatchesAcrossRuns) {
  for (const mac::LinkFidelity f : {mac::LinkFidelity::kPerMpdu, mac::LinkFidelity::kAggregate}) {
    const link::LinkBackendConfig cfg = wifi_config(f);
    mac::FixedMcs rc(cfg.mcs_index);
    mac::LinkSimulator sim(cfg.mac, rc, 17);
    const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
    const std::unique_ptr<link::LinkSession> sess = bk->make_session(17);
    for (int run = 0; run < 3; ++run) {
      SCOPED_TRACE("run " + std::to_string(run));
      const auto legacy =
          sim.run_transfer(kPayloadBytes / 4, kMaxDuration, mac::static_geometry(110.0));
      const auto wrapped =
          sess->run_transfer(kPayloadBytes / 4, kMaxDuration, mac::static_geometry(110.0));
      expect_identical(wrapped, legacy);
    }
  }
}

/// Thread invariance: the same (seed, distance) jobs produce bitwise the
/// same results whether run serially or spread over 2 or 8 threads, with
/// every worker hammering one shared PER-table cache.
TEST(BackendEquivalence, ThreadCountInvariant) {
  link::LinkBackendConfig cfg = wifi_config(mac::LinkFidelity::kAggregate);
  cfg.mac.shared_tables = mac::make_shared_per_tables(cfg.mac);

  struct Job {
    std::uint64_t seed;
    double distance_m;
  };
  std::vector<Job> jobs;
  for (std::uint64_t s = 1; s <= 8; ++s) jobs.push_back({s, 60.0 + 10.0 * static_cast<double>(s)});

  std::vector<mac::LinkRunResult> reference(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    reference[i] = backend_transfer(cfg, jobs[i].seed, jobs[i].distance_m);
  }

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<mac::LinkRunResult> got(jobs.size());
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < jobs.size();
             i += static_cast<std::size_t>(threads)) {
          got[i] = backend_transfer(cfg, jobs[i].seed, jobs[i].distance_m);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      expect_identical(got[i], reference[i]);
    }
  }
}

/// Generic (non-wifi) sessions are deterministic per seed too: same seed
/// bit-identical, different seeds draw independent streams.
TEST(BackendEquivalence, GenericSessionsDeterministicPerSeed) {
  for (const auto& make : {&link::LinkBackendConfig::cellular, &link::LinkBackendConfig::mesh,
                           &link::LinkBackendConfig::leo}) {
    // Park the mean SNR in the PER transition with a heavy per-burst
    // fade so frame fates actually consume the RNG — at the presets'
    // nominal SNR the PER rounds to 0 and every seed coincides.
    link::LinkBackendConfig cfg = make();
    cfg.mcs_index = 3;
    cfg.snr_ref_db = 15.0;
    cfg.snr_fade_sigma_db = 6.0;
    const std::unique_ptr<link::LinkBackend> bk = link::make_backend(cfg);
    SCOPED_TRACE(bk->name());
    const auto geometry = mac::static_geometry(cfg.snr_ref_distance_m);
    const auto a = bk->make_session(11)->run_transfer(50'000, 600.0, geometry);
    const auto b = bk->make_session(11)->run_transfer(50'000, 600.0, geometry);
    expect_identical(a, b);
    const auto c = bk->make_session(12)->run_transfer(50'000, 600.0, geometry);
    EXPECT_TRUE(a.duration_s != c.duration_s || a.mpdus_delivered != c.mpdus_delivered)
        << "distinct seeds should draw distinct streams";
  }
}

}  // namespace
}  // namespace skyferry
