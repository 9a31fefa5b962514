// The fast tier of the joint (link, d) optimizer's differential oracle
// (support/multilink_oracle.h; oracle_slow_test.cc runs the slow tier):
// the production solve — pruned grid stages, pruned free election, the
// 802.11n curvature bound, lazy single-link refinements and flat-rate
// trickles — against the unmemoized reference, bit for bit, on random
// pool queries, on 802.11n fits placed against the curvature change at
// R*, on mesh hop boundaries at d0, and on the fleet's spawn shape. The
// tests also assert that each pruning actually fired.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "link/multilink.h"
#include "support/multilink_oracle.h"
#include "uav/failure.h"

namespace skyferry {
namespace {

using legacy::first_difference;
namespace ref = legacy::ref;

TEST(MultiLinkOracle, SharedGridSolveMatchesUnmemoizedReferenceBitForBit) {
  constexpr int kQueries = 4000;
  const legacy::MultiLinkOracleTally t = legacy::multilink_random_mismatches(kQueries, 0x0AC1EULL);
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  // Each query compares the free election, the single-link decisions and
  // every pinned election.
  EXPECT_GE(t.comparisons, 3 * kQueries);
  // The bit-identity above holds vacuously if nothing is pruned (about
  // 80 % of these elections prune a link) or no election is tied.
  EXPECT_GE(t.pruned_free * 2, t.multi_link_free)
      << "pruning fired on " << t.pruned_free << " of " << t.multi_link_free
      << " multi-link free elections";
  EXPECT_GT(t.tied_free, 0);
  EXPECT_GE(t.grid_pruned_free * 2, t.bounded_free)
      << "grid pruning fired on " << t.grid_pruned_free << " of " << t.bounded_free
      << " free elections on the bounded path";
}

// 802.11n fits whose grid lies wholly where Ttx is concave, wholly where
// it is convex, across R*, past the fit's zero, or in a narrow window
// around R*'s distance with the speed aimed at the curvature change
// (where neighbouring points tie or cross by an ulp), alone and in sets
// of 2 and 4.
TEST(MultiLinkOracle, PaperFitsAcrossTheCurvatureChangeMatchTheReference) {
  constexpr int kQueries = 2500;
  const legacy::MultiLinkOracleTally t =
      legacy::multilink_curvature_mismatches(kQueries, 0xC0AC4EULL);
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  EXPECT_GE(t.comparisons, 3 * kQueries);
  EXPECT_GE(t.grid_pruned_free * 2, t.bounded_free)
      << "grid pruning fired on " << t.grid_pruned_free << " of " << t.bounded_free
      << " free elections";
}

// Cdelay dipping below the corners of a block that straddles d*: a
// concave bound there, or a secant through a corner short of d*, prunes
// the block that holds the optimum.
TEST(MultiLinkOracle, CdelayDipAcrossRStarMatchesTheReference) {
  constexpr int kQueries = 6000;
  const legacy::MultiLinkOracleTally t =
      legacy::multilink_curvature_mismatches(kQueries, 0xD1FULL, /*dip_alone=*/true);
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  EXPECT_EQ(t.comparisons, 3 * kQueries);
}

// A mesh link is flat on [d_min, d0] exactly while d0 stays a margin
// (1e-9 of d0 + d_min) short of its first hop boundary: 1e-8 short it
// is flat; at the boundary, one ulp either side of it and 1e-9 or 1e-12
// short of it, trickle samples may take two hops, so it is not. At the
// second boundary it is never flat.
TEST(MultiLinkOracle, MeshHopBoundaryAtD0MatchesTheReference) {
  const link::LinkBackendConfig mesh = link::LinkBackendConfig::mesh();
  const link::LinkSet set({link::LinkBackendConfig::wifi_80211n(),
                           link::LinkBackendConfig::cellular(), mesh,
                           link::LinkBackendConfig::leo()});
  legacy::MultiLinkOracleTally t;
  for (const double boundary : {mesh.mesh_hop_m, 2.0 * mesh.mesh_hop_m}) {
    for (const double d0 : {boundary, std::nextafter(boundary, 0.0),
                            std::nextafter(boundary, 1e9), boundary * (1.0 - 1e-8),
                            boundary * (1.0 - 1e-9), boundary * (1.0 - 1e-12),
                            boundary * (1.0 + 1e-12)}) {
      for (const double speed : {0.7, 4.5, 25.0}) {
        for (const double mdata : {1e5, 5e7, 2e9}) {
          const link::MultiLinkParams p{d0, speed, mdata, 20.0};
          legacy::check_query(set.views(), p, uav::FailureModel(1e-4), {},
                              "d0=" + std::to_string(d0), t);
        }
      }
    }
  }
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  EXPECT_EQ(t.comparisons, 2 * 7 * 3 * 3 * 6);
}

// The fleet's spawn shape (BM_MultiLinkDecideFleet's queries): 802.11n
// wins, every other link is pruned, and the curvature bound keeps
// 802.11n's pass 1 to a fraction of its 256 grid points.
TEST(MultiLinkOracle, SpawnShapePassOneStaysSmallAndEveryLoserIsPruned) {
  const link::LinkSet set({link::LinkBackendConfig::wifi_80211n(),
                           link::LinkBackendConfig::cellular(), link::LinkBackendConfig::mesh(),
                           link::LinkBackendConfig::leo()});
  const std::vector<const link::LinkBackend*> views = set.views();
  const uav::FailureModel failure(1e-4);
  constexpr int kQueries = 64;
  legacy::MultiLinkOracleTally t;
  int wifi_pass1 = 0;
  int pruned = 0;
  for (int i = 0; i < kQueries; ++i) {
    const link::MultiLinkParams p{150.0 + 125.0 * i / 63, 4.5, 5e7, 20.0};
    legacy::check_query(views, p, failure, {}, "query " + std::to_string(i), t);
    wifi_pass1 += link::single_link_decisions(views, p, failure)[0].grid_evaluated;
    pruned += link::optimize_multilink(views, p, failure).links_pruned;
  }
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  EXPECT_LE(wifi_pass1, 100 * kQueries) << "802.11n pass 1: " << wifi_pass1 << " points";
  EXPECT_EQ(pruned, 3 * kQueries);
}

// A tie at zero utility, where the bound's slack gives no margin: link 0
// is dead everywhere (bound 0); link 1 is alive only where the linear
// failure law has already discounted to 0, so it scores 0 too, but its
// bound over the grid interval that straddles both edges is positive.
// Link 1 is searched first; link 0's bound equals the incumbent and must
// not be pruned, so the first index still wins.
TEST(MultiLinkOracle, ZeroUtilityTieKeepsTheFirstIndex) {
  link::LinkBackendConfig dead = link::LinkBackendConfig::mesh();
  dead.name = "mesh-dead";
  dead.mesh_hop_m = 10.0;  // min distance 20 m is already two hops
  dead.mesh_max_hops = 1;
  link::LinkBackendConfig near = link::LinkBackendConfig::mesh();
  near.name = "mesh-near";
  near.mesh_max_hops = 1;  // alive out to 400 m
  const link::LinkSet set({dead, near});
  const link::MultiLinkParams p{2000.0, 5.0, 1e7, 20.0};
  // δ(d) > 0 only beyond 399.5 m; the 8-point grid steps from 302.9 m
  // to 585.7 m, so no evaluated point sees both a live rate and δ > 0.
  const uav::FailureModel failure(1.0 / 1600.5, uav::FailureLaw::kLinear);
  core::OptimizeOptions opt;
  opt.grid_points = 8;
  const link::MultiLinkResult got = link::optimize_multilink(set.views(), p, failure, opt);
  const link::MultiLinkResult want = ref::optimize_multilink(set.views(), p, failure, opt, -1);
  EXPECT_EQ(first_difference(got, want), "");
  EXPECT_EQ(got.burst_link, 0);
  EXPECT_EQ(got.decision.utility, 0.0);
}

// The pruning bound needs every rate curve non-increasing in distance, so
// a wifi fit that rises never reaches the solver.
TEST(MultiLinkOracle, RisingWifiFitIsRejectedBeforeTheSolver) {
  link::LinkBackendConfig rising = link::LinkBackendConfig::wifi_80211n();
  rising.wifi_a = 3.0;
  rising.wifi_b = 1.0;
  EXPECT_THROW((void)link::make_backend(rising), link::ConfigError);
  EXPECT_THROW(link::LinkSet({link::LinkBackendConfig::cellular(), rising}), link::ConfigError);
}

}  // namespace
}  // namespace skyferry
