// Adversarial configuration suite: validate() (and so make_backend)
// must refuse every non-finite / negative / inconsistent field and
// mismatched shared PER-table caches, each with its own message, and
// accept every in-range boundary value.
#include <limits>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "link/backend.h"
#include "mac/link.h"
#include "phy/per_table.h"

namespace skyferry {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

using link::LinkBackendConfig;

void expect_rejected(LinkBackendConfig cfg, const char* why) {
  EXPECT_THROW(cfg.validate(), link::ConfigError) << why;
  EXPECT_THROW((void)link::make_backend(cfg), link::ConfigError) << why;
}

TEST(BackendConfig, PresetsValidateAndBuild) {
  for (const auto& make : {&LinkBackendConfig::wifi_80211n, &LinkBackendConfig::cellular,
                           &LinkBackendConfig::mesh, &LinkBackendConfig::leo}) {
    const LinkBackendConfig cfg = make();
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_NE(link::make_backend(cfg), nullptr);
  }
}

TEST(BackendConfig, RejectsNonFiniteAndNegativeFields) {
  {
    LinkBackendConfig c = LinkBackendConfig::wifi_80211n();
    c.wifi_a = kNan;
    expect_rejected(c, "NaN wifi_a");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.cell_peak_bps = kInf;
    expect_rejected(c, "infinite cell_peak_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.cell_floor_bps = -1.0;
    expect_rejected(c, "negative cell_floor_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.cell_floor_bps = c.cell_peak_bps * 2.0;
    expect_rejected(c, "floor above peak");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::mesh();
    c.mesh_hop_rate_bps = -18e6;
    expect_rejected(c, "negative mesh_hop_rate_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::mesh();
    c.mesh_max_hops = 0;
    expect_rejected(c, "zero mesh_max_hops");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.leo_rate_bps = 0.0;
    expect_rejected(c, "zero leo_rate_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.session_setup_s = -1.0;
    expect_rejected(c, "negative session_setup_s");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.rtt_s = kNan;
    expect_rejected(c, "NaN rtt_s");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::wifi_80211n();
    c.min_distance_m = 0.0;
    expect_rejected(c, "zero min_distance_m");
  }
}

TEST(BackendConfig, RejectsBadAvailabilityAndOutage) {
  for (const double a : {0.0, -0.2, 1.5, kNan}) {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.outage.availability = a;
    expect_rejected(c, "availability outside (0,1]");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.outage.mean_outage_s = -45.0;
    expect_rejected(c, "negative mean_outage_s");
  }
}

TEST(BackendConfig, RejectsBadPhyCurve) {
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.mcs_index = 16;
    expect_rejected(c, "mcs_index out of range");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.frame_bits = 0;
    expect_rejected(c, "zero frame_bits");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.frames_per_burst = 0;
    expect_rejected(c, "zero frames_per_burst");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.per_table.snr_min_db = c.per_table.snr_max_db + 1.0;
    expect_rejected(c, "inverted per_table SNR range");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.per_table.step_db = 0.0;
    expect_rejected(c, "zero per_table step");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.snr_ref_distance_m = 0.0;
    expect_rejected(c, "zero snr_ref_distance_m");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.spatial_correlation = 1.5;
    expect_rejected(c, "spatial_correlation above 1");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.error.stbc_gain_db = kNan;
    expect_rejected(c, "NaN error-model gain");
  }
}

TEST(BackendConfig, RejectsMismatchedSharedTables) {
  LinkBackendConfig c = LinkBackendConfig::cellular();
  // A cache built for a *different* error model than c.error.
  phy::ErrorModelConfig other = c.error;
  other.stbc_gain_db += 1.0;
  c.shared_tables = std::make_shared<phy::PerTableCache>(
      phy::ErrorModel(other, c.spatial_correlation), c.per_table);
  expect_rejected(c, "shared_tables fingerprint mismatch");

  // The matching cache passes.
  c.shared_tables = std::make_shared<phy::PerTableCache>(
      phy::ErrorModel(c.error, c.spatial_correlation), c.per_table);
  EXPECT_NO_THROW(c.validate());
}

TEST(BackendConfig, RejectsMismatchedWifiMacSharedTables) {
  LinkBackendConfig c = LinkBackendConfig::wifi_80211n();
  mac::LinkConfig other = c.mac;
  other.error.stbc_gain_db += 1.0;
  c.mac.shared_tables = mac::make_shared_per_tables(other);
  expect_rejected(c, "mac.shared_tables fingerprint mismatch");

  c.mac.shared_tables = mac::make_shared_per_tables(c.mac);
  EXPECT_NO_THROW(c.validate());
}

// One row per validate() guard: a preset, one bad field, and the exact
// message of the guard that must fire. Matching the message (not just
// the exception type) proves the intended guard rejected the config and
// not an earlier one.
struct GuardCase {
  const char* name;
  LinkBackendConfig (*preset)();
  void (*spoil)(LinkBackendConfig&);
  const char* message;
};

// Printed by name: the default printer would dump the pointers' bytes
// into the test names, which then change from one run to the next.
void PrintTo(const GuardCase& g, std::ostream* os) { *os << g.name; }

class BackendConfigGuard : public ::testing::TestWithParam<GuardCase> {};

TEST_P(BackendConfigGuard, RejectsWithItsOwnMessage) {
  const GuardCase& g = GetParam();
  LinkBackendConfig c = g.preset();
  ASSERT_NO_THROW(c.validate());
  g.spoil(c);
  const std::string want = std::string("LinkBackendConfig: ") + g.message;
  try {
    c.validate();
    ADD_FAILURE() << "validate() accepted " << g.name;
  } catch (const link::ConfigError& e) {
    EXPECT_EQ(e.what(), want);
  }
  try {
    (void)link::make_backend(c);
    ADD_FAILURE() << "make_backend() accepted " << g.name;
  } catch (const link::ConfigError& e) {
    EXPECT_EQ(e.what(), want);
  }
}

const GuardCase kGuardCases[] = {
    {"empty_name", &LinkBackendConfig::wifi_80211n, [](LinkBackendConfig& c) { c.name.clear(); },
     "name must be non-empty"},
    {"nan_wifi_a", &LinkBackendConfig::wifi_80211n, [](LinkBackendConfig& c) { c.wifi_a = kNan; },
     "wifi fit coefficients must be finite"},
    {"inf_wifi_b", &LinkBackendConfig::wifi_80211n, [](LinkBackendConfig& c) { c.wifi_b = -kInf; },
     "wifi fit coefficients must be finite"},
    {"zero_wifi_scale", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) { c.wifi_scale = 0.0; }, "wifi_scale must be finite and > 0"},
    {"inf_wifi_scale", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.wifi_scale = kInf; }, "wifi_scale must be finite and > 0"},
    {"zero_cell_peak", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.cell_peak_bps = 0.0; }, "cell_peak_bps must be finite and > 0"},
    {"nan_cell_peak", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.cell_peak_bps = kNan; }, "cell_peak_bps must be finite and > 0"},
    {"negative_cell_floor", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.cell_floor_bps = -1.0; },
     "cell_floor_bps must be finite and >= 0"},
    {"cell_floor_above_peak", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.cell_floor_bps = 2.0 * c.cell_peak_bps; },
     "cell_floor_bps must not exceed cell_peak_bps"},
    {"zero_cell_half", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.cell_half_m = 0.0; }, "cell_half_m must be finite and > 0"},
    {"negative_cell_max_range", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.cell_max_range_m = -30e3; },
     "cell_max_range_m must be finite and > 0"},
    {"nan_mesh_hop_rate", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.mesh_hop_rate_bps = kNan; },
     "mesh_hop_rate_bps must be finite and > 0"},
    {"zero_mesh_hop", &LinkBackendConfig::mesh, [](LinkBackendConfig& c) { c.mesh_hop_m = 0.0; },
     "mesh_hop_m must be finite and > 0"},
    {"negative_mesh_max_hops", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.mesh_max_hops = -2; }, "mesh_max_hops must be >= 1"},
    {"negative_leo_rate", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.leo_rate_bps = -4e6; }, "leo_rate_bps must be finite and > 0"},
    {"inf_leo_max_range", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.leo_max_range_m = kInf; },
     "leo_max_range_m must be finite and > 0"},
    {"nan_min_distance", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.min_distance_m = kNan; },
     "min_distance_m must be finite and > 0"},
    {"inf_session_setup", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.session_setup_s = kInf; },
     "session_setup_s must be finite and >= 0"},
    {"negative_rtt", &LinkBackendConfig::mesh, [](LinkBackendConfig& c) { c.rtt_s = -0.01; },
     "rtt_s must be finite and >= 0"},
    {"zero_availability", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) { c.outage.availability = 0.0; },
     "outage.availability must be in (0, 1]"},
    {"availability_above_one", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.outage.availability = 1.0 + 1e-12; },
     "outage.availability must be in (0, 1]"},
    {"zero_mean_outage_when_lossy", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) {
       c.outage.availability = 0.9;
       c.outage.mean_outage_s = 0.0;
     },
     "outage.mean_outage_s must be finite and > 0 when availability < 1"},
    {"inf_mean_outage_when_lossy", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) {
       c.outage.availability = 0.5;
       c.outage.mean_outage_s = kInf;
     },
     "outage.mean_outage_s must be finite and > 0 when availability < 1"},
    {"negative_mcs_index", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) { c.mcs_index = -1; }, "mcs_index out of range"},
    {"mcs_index_past_table", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.mcs_index = phy::kNumMcs; }, "mcs_index out of range"},
    {"negative_frame_bits", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.frame_bits = -12000; }, "frame_bits must be > 0"},
    {"zero_frames_per_burst", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.frames_per_burst = 0; }, "frames_per_burst must be >= 1"},
    {"nan_snr_ref", &LinkBackendConfig::cellular, [](LinkBackendConfig& c) { c.snr_ref_db = kNan; },
     "snr_ref_db must be finite"},
    {"negative_snr_ref_distance", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.snr_ref_distance_m = -100.0; },
     "snr_ref_distance_m must be finite and > 0"},
    {"negative_snr_slope", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.snr_slope_db_per_decade = -20.0; },
     "snr_slope_db_per_decade must be finite and >= 0"},
    {"negative_fade_sigma", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.snr_fade_sigma_db = -0.5; },
     "snr_fade_sigma_db must be finite and >= 0"},
    {"nan_jitter", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) { c.snr_jitter_db = kNan; }, "snr_jitter_db must be finite and >= 0"},
    {"negative_spatial_correlation", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.spatial_correlation = -0.1; },
     "spatial_correlation must be in [0, 1]"},
    {"nan_spatial_correlation", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.spatial_correlation = kNan; },
     "spatial_correlation must be in [0, 1]"},
    {"empty_per_table_range", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.per_table.snr_max_db = c.per_table.snr_min_db; },
     "per_table SNR range must be finite with min < max"},
    {"inf_per_table_max", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) { c.per_table.snr_max_db = kInf; },
     "per_table SNR range must be finite with min < max"},
    {"negative_per_table_step", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.per_table.step_db = -0.25; },
     "per_table.step_db must be finite and > 0"},
    {"nan_coding_gain_half", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.error.coding_gain_half_db = kNan; },
     "error-model gains must be finite"},
    {"inf_coding_gain_two_thirds", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.error.coding_gain_two_thirds_db = kInf; },
     "error-model gains must be finite"},
    {"nan_coding_gain_three_quarters", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.error.coding_gain_three_quarters_db = kNan; },
     "error-model gains must be finite"},
    {"inf_coding_gain_five_sixths", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) { c.error.coding_gain_five_sixths_db = -kInf; },
     "error-model gains must be finite"},
    {"nan_sdm_power_split", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.error.sdm_power_split_db = kNan; },
     "error-model gains must be finite"},
    {"inf_sdm_correlation_penalty", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.error.sdm_max_correlation_penalty_db = kInf; },
     "error-model gains must be finite"},
};

INSTANTIATE_TEST_SUITE_P(EveryGuard, BackendConfigGuard, ::testing::ValuesIn(kGuardCases),
                         [](const ::testing::TestParamInfo<GuardCase>& info) {
                           return std::string(info.param.name);
                         });

// Boundary values every guard must let through; the config also builds.
struct BoundaryCase {
  const char* name;
  LinkBackendConfig (*preset)();
  void (*edge)(LinkBackendConfig&);
};

void PrintTo(const BoundaryCase& b, std::ostream* os) { *os << b.name; }

class BackendConfigBoundary : public ::testing::TestWithParam<BoundaryCase> {};

TEST_P(BackendConfigBoundary, AcceptsAndBuilds) {
  const BoundaryCase& b = GetParam();
  LinkBackendConfig c = b.preset();
  b.edge(c);
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(link::make_backend(c), nullptr);
}

const BoundaryCase kBoundaryCases[] = {
    {"cell_floor_equals_peak", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.cell_floor_bps = c.cell_peak_bps; }},
    {"zero_cell_floor", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.cell_floor_bps = 0.0; }},
    {"single_mesh_hop", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.mesh_max_hops = 1; }},
    {"zero_session_setup_and_rtt", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) {
       c.session_setup_s = 0.0;
       c.rtt_s = 0.0;
     }},
    {"always_up_ignores_mean_outage", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) {
       c.outage.availability = 1.0;
       c.outage.mean_outage_s = -45.0;
     }},
    {"tiny_availability", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) { c.outage.availability = 1e-9; }},
    {"first_mcs", &LinkBackendConfig::cellular, [](LinkBackendConfig& c) { c.mcs_index = 0; }},
    {"last_mcs", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.mcs_index = phy::kNumMcs - 1; }},
    {"one_frame_per_burst", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.frames_per_burst = 1; }},
    {"flat_snr_without_fading", &LinkBackendConfig::cellular,
     [](LinkBackendConfig& c) {
       c.snr_slope_db_per_decade = 0.0;
       c.snr_fade_sigma_db = 0.0;
       c.snr_jitter_db = 0.0;
     }},
    {"negative_snr_ref", &LinkBackendConfig::mesh,
     [](LinkBackendConfig& c) { c.snr_ref_db = -5.0; }},
    {"uncorrelated_antennas", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) { c.spatial_correlation = 0.0; }},
    {"fully_correlated_antennas", &LinkBackendConfig::leo,
     [](LinkBackendConfig& c) { c.spatial_correlation = 1.0; }},
    {"negative_wifi_fit", &LinkBackendConfig::wifi_80211n,
     [](LinkBackendConfig& c) {
       c.wifi_a = -12.0;
       c.wifi_b = -3.0;
     }},
};

INSTANTIATE_TEST_SUITE_P(EveryEdge, BackendConfigBoundary, ::testing::ValuesIn(kBoundaryCases),
                         [](const ::testing::TestParamInfo<BoundaryCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace skyferry
