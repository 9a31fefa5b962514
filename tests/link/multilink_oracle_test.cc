// The fast tier of the joint (link, d) optimizer's differential oracle
// (support/multilink_oracle.h; oracle_slow_test.cc runs the slow tier):
// the production solve — pruned grid stages, the incumbent-first free
// election, the switch election, the 802.11n curvature bound, lazy
// single-link passes and flat-rate trickles — against the unmemoized
// reference, bit for bit, on random pool queries, on 802.11n fits placed
// against the curvature change at R*, on mesh hop boundaries at d0, on
// the fleet's spawn and re-election shapes, and on pinned switch
// elections at the commit floor. The tests also assert that each pruning
// actually fired.
#include <cmath>
#include <limits>
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
  // the switch election from every link at three margins.
  EXPECT_GE(t.comparisons, 5 * kQueries);
  // The bit-identity above holds vacuously if nothing is pruned (about
  // 80 % of these elections prune a link) or no election is tied.
  EXPECT_GE(t.pruned_free * 2, t.multi_link_free)
      << "pruning fired on " << t.pruned_free << " of " << t.multi_link_free
      << " multi-link free elections";
  // The link bound prunes at least the 4988 links the interval walk over
  // pass 1's filled cells pruned before pass 1 itself was pruned.
  EXPECT_GE(t.links_pruned, 4988);
  EXPECT_GT(t.tied_free, 0);
  EXPECT_GE(t.switches_pruned * 2, t.switches)
      << "pruning fired on " << t.switches_pruned << " of " << t.switches
      << " multi-link switch elections";
  EXPECT_GT(t.switches_committed, 0);
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
  EXPECT_GE(t.comparisons, 5 * kQueries);
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
  // The free election, the single-link decision and three switch
  // elections from the one link.
  EXPECT_EQ(t.comparisons, 5 * kQueries);
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
  EXPECT_EQ(t.comparisons, 2 * 7 * 3 * 3 * (2 + 4 * 3));
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

// The fleet's re-election shape (BM_MultiLinkReelect's queries): the
// mission stays on 802.11n at 4.5 m/s with ρ = 1e-4, d0 64-232 m and a
// residual of 12 B to 2.5 KB. No challenger comes within the 5 % commit
// margin, and the bound proves each one below the floor without a
// search.
TEST(MultiLinkOracle, ReelectionShapeProvesEveryChallengerBelowTheFloor) {
  const link::LinkSet set({link::LinkBackendConfig::wifi_80211n(),
                           link::LinkBackendConfig::cellular(), link::LinkBackendConfig::mesh(),
                           link::LinkBackendConfig::leo()});
  const std::vector<const link::LinkBackend*> views = set.views();
  const uav::FailureModel failure(1e-4);
  constexpr int kQueries = 32;
  legacy::MultiLinkOracleTally t;
  int pruned = 0;
  for (int i = 0; i < kQueries; ++i) {
    const double residual = 12.0 * std::pow(2494.0 / 12.0, i / (kQueries - 1.0));
    const link::MultiLinkParams p{64.0 + 168.0 * ((i * 7) % kQueries) / (kQueries - 1), 4.5,
                                  std::round(residual), 20.0};
    legacy::check_query(views, p, failure, {}, "query " + std::to_string(i), t);
    const link::SwitchElection sw = link::elect_switch(views, p, failure, 0, 0.05);
    EXPECT_EQ(sw.challenger.burst_link, -1) << "query " << i;
    pruned += sw.links_pruned;
  }
  EXPECT_EQ(t.mismatches, 0) << t.first_mismatch;
  EXPECT_EQ(pruned, 3 * kQueries);
}

// Pinned switch elections against the reference's pinned elections.
TEST(MultiLinkOracle, SwitchElectionPinnedCases) {
  const link::MultiLinkParams p{200.0, 4.5, 5e7, 20.0};
  const uav::FailureModel failure(1e-4);
  const core::OptimizeOptions opt;
  const auto check = [&](const link::LinkSet& set, int stay, double margin) {
    std::vector<link::MultiLinkResult> pinned;
    for (int j = 0; j < static_cast<int>(set.size()); ++j)
      pinned.push_back(ref::optimize_multilink(set.views(), p, failure, opt, j));
    const link::SwitchElection got = link::elect_switch(set.views(), p, failure, stay, margin);
    EXPECT_EQ(legacy::switch_difference(got, pinned, stay, margin, p, opt), "")
        << "stay " << stay << " margin " << margin;
    return got;
  };
  const link::LinkBackendConfig wifi = link::LinkBackendConfig::wifi_80211n();
  link::LinkBackendConfig twin = wifi;
  twin.name = "wifi-twin";
  const link::LinkBackendConfig cell = link::LinkBackendConfig::cellular();

  // A challenger exactly at the floor commits (the rule is >=): an exact
  // copy of the stay link ties it at margin 0, and loses to the floor one
  // epsilon up.
  const link::LinkSet pair({wifi, twin, cell});
  const link::SwitchElection at_floor = check(pair, 0, 0.0);
  EXPECT_EQ(at_floor.challenger.burst_link, 1);
  EXPECT_EQ(at_floor.challenger.decision.utility, at_floor.stay.decision.utility);
  EXPECT_EQ(check(pair, 0, std::numeric_limits<double>::epsilon()).challenger.burst_link, -1);
  // The floor met exactly at a positive margin: the 802.11n challenger
  // against a cellular stay, at the margin whose floor rounds to its
  // utility.
  const link::SwitchElection from_cell = check(pair, 2, 0.0);
  ASSERT_EQ(from_cell.challenger.burst_link, 0);
  const double u_stay = from_cell.stay.decision.utility;
  const double u_best = from_cell.challenger.decision.utility;
  double margin = u_best / u_stay - 1.0;
  for (int step = 0; step < 64 && (1.0 + margin) * u_stay != u_best; ++step) {
    margin = std::nextafter(margin, (1.0 + margin) * u_stay < u_best ? 1e9 : -1e9);
  }
  ASSERT_EQ((1.0 + margin) * u_stay, u_best) << "no margin puts the floor on the challenger";
  ASSERT_GT(margin, 0.0);
  EXPECT_EQ(check(pair, 2, margin).challenger.burst_link, 0);
  double past = std::nextafter(margin, 1e9);
  while ((1.0 + past) * u_stay == u_best) past = std::nextafter(past, 1e9);
  EXPECT_EQ(check(pair, 2, past).challenger.burst_link, -1);
  // Two challengers tied at the top: the lower index wins.
  const link::LinkSet tied({cell, wifi, twin});
  EXPECT_EQ(check(tied, 0, 0.05).challenger.burst_link, 1);

  // A dead stay link (utility 0, floor 0) switches to any live link at
  // any margin, and to none when every challenger is dead too.
  link::LinkBackendConfig dead = link::LinkBackendConfig::mesh();
  dead.name = "mesh-dead";
  dead.mesh_hop_m = 10.0;  // min distance 20 m is already two hops
  dead.mesh_max_hops = 1;
  link::LinkBackendConfig dead_too = dead;
  dead_too.name = "mesh-dead-too";
  const link::LinkSet revive({dead, wifi});
  const link::SwitchElection revived = check(revive, 0, 0.5);
  EXPECT_EQ(revived.stay.decision.utility, 0.0);
  EXPECT_EQ(revived.challenger.burst_link, 1);
  const link::LinkSet graveyard({dead, dead_too});
  EXPECT_EQ(check(graveyard, 0, 0.0).challenger.burst_link, -1);

  // One link: its pinned election is the free election, no challenger.
  const link::LinkSet alone({wifi});
  const link::SwitchElection single = check(alone, 0, 0.05);
  EXPECT_EQ(legacy::first_difference(single.stay, link::optimize_multilink(alone.views(), p, failure)),
            "");
  EXPECT_EQ(single.challenger.burst_link, -1);
  EXPECT_EQ(single.links_pruned, 0);

  // No usable election: a stay outside the set, an empty set.
  for (const int stay : {-1, 3}) {
    const link::SwitchElection none = link::elect_switch(pair.views(), p, failure, stay, 0.05);
    EXPECT_EQ(none.stay.burst_link, -1);
    EXPECT_EQ(none.challenger.burst_link, -1);
  }
  const link::SwitchElection empty = link::elect_switch({}, p, failure, 0, 0.05);
  EXPECT_EQ(empty.stay.burst_link, -1);
  EXPECT_EQ(empty.stay.decision.utility, 0.0);
  EXPECT_EQ(empty.challenger.burst_link, -1);
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
