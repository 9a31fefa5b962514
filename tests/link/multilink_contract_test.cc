// The two exact contracts of the joint (link, d) optimizer:
//
//  - *Bit-identity*: one 802.11n backend reduces optimize_multilink (and
//    DecisionService::decide_multilink) to the legacy core::optimize()
//    path, bit for bit — every EXPECT_EQ on a double below is exact.
//  - *Dominance*: on a randomized (d0, Mdata, rho, v) grid the joint
//    utility is >= the best single-link utility (trickling never hurts),
//    with exact equality when only one backend is enabled.
#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/delay.h"
#include "core/optimizer.h"
#include "core/throughput_model.h"
#include "core/utility.h"
#include "fleet/engine.h"
#include "link/multilink.h"
#include "policy/service.h"
#include "support/multilink_oracle.h"
#include "support/proptest.h"
#include "uav/failure.h"

namespace skyferry {
namespace {

std::shared_ptr<const link::LinkSet> full_link_set() {
  return std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
      link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
      link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()});
}

TEST(MultiLinkContract, SingleWifiBackendBitIdenticalToCoreOptimize) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::wifi_80211n();
  const link::LinkSet set({cfg});
  const core::PaperLogThroughput model(cfg.wifi_a, cfg.wifi_b, cfg.name, cfg.wifi_scale,
                                       cfg.min_distance_m);
  FOR_ALL(60, 0xB171DULL, g) {
    const link::MultiLinkParams p{g.uniform(50.0, 4000.0), g.uniform(1.0, 30.0),
                                  g.uniform(1e5, 2e9), 20.0};
    const uav::FailureModel failure(g.chance(0.2) ? 0.0 : g.uniform(1e-5, 5e-3));

    const core::DeliveryParams params{p.d0_m, p.speed_mps, p.mdata_bytes, p.min_distance_m};
    const core::CommDelayModel delay(model, params);
    const core::UtilityFunction u(delay, failure);
    const core::OptimizeResult want = core::optimize(u);

    const link::MultiLinkResult got = link::optimize_multilink(set.views(), p, failure);
    EXPECT_EQ(got.burst_link, 0);
    EXPECT_EQ(got.trickle_bytes, 0.0);
    EXPECT_EQ(got.burst_bytes, p.mdata_bytes);
    EXPECT_EQ(got.decision.d_opt_m, want.d_opt_m);
    EXPECT_EQ(got.decision.utility, want.utility);
    EXPECT_EQ(got.decision.cdelay_s, want.cdelay_s);
    EXPECT_EQ(got.decision.discount, want.discount);
    EXPECT_EQ(got.decision.boundary, want.boundary);
    EXPECT_EQ(got.decision.evaluations, want.evaluations);
  }
}

TEST(MultiLinkContract, JointUtilityDominatesBestSingleLink) {
  const std::shared_ptr<const link::LinkSet> set = full_link_set();
  const std::vector<const link::LinkBackend*> views = set->views();
  FOR_ALL(120, 0xD0F1ULL, g) {
    const link::MultiLinkParams p{g.uniform(50.0, 5000.0), g.uniform(1.0, 30.0),
                                  g.uniform(1e5, 5e8), 20.0};
    const uav::FailureModel failure(g.chance(0.25) ? 0.0 : g.uniform(1e-5, 1e-2));
    const link::MultiLinkResult r = link::optimize_multilink(views, p, failure);

    const std::vector<core::OptimizeResult> single =
        link::single_link_decisions(views, p, failure);
    ASSERT_EQ(single.size(), views.size());
    double best_single = 0.0;
    for (const core::OptimizeResult& s : single) best_single = std::max(best_single, s.utility);
    EXPECT_GE(r.decision.utility, best_single)
        << "d0=" << p.d0_m << " v=" << p.speed_mps << " M=" << p.mdata_bytes
        << " rho=" << failure.rho();

    // The split is a partition of the batch.
    EXPECT_GE(r.trickle_bytes, 0.0);
    EXPECT_LE(r.trickle_bytes, p.mdata_bytes);
    EXPECT_EQ(r.burst_bytes, p.mdata_bytes - r.trickle_bytes);
    ASSERT_GE(r.burst_link, 0);
    ASSERT_LT(r.burst_link, static_cast<int>(views.size()));
    EXPECT_EQ(r.trickle_by_link[static_cast<std::size_t>(r.burst_link)], 0.0);
    // The per-link split always sums to the reported total, including
    // when the Mdata cap binds (the vector is rescaled proportionally).
    double split_sum = 0.0;
    for (const double v : r.trickle_by_link) split_sum += v;
    EXPECT_NEAR(split_sum, r.trickle_bytes, 1e-9 * std::max(1.0, r.trickle_bytes));
  }
}

TEST(MultiLinkContract, ForcedBurstElectionIsHonored) {
  const std::shared_ptr<const link::LinkSet> set = full_link_set();
  const std::vector<const link::LinkBackend*> views = set->views();
  const link::MultiLinkParams p{1500.0, 10.0, 5e7, 20.0};
  const uav::FailureModel failure(1e-3);
  // The reference pins the burst to each link in turn, and the switch
  // election from link j answers with that very election, bit for bit.
  std::vector<link::MultiLinkResult> pinned;
  for (int j = 0; j < static_cast<int>(views.size()); ++j) {
    pinned.push_back(legacy::ref::optimize_multilink(views, p, failure, {}, j));
    EXPECT_EQ(pinned.back().burst_link, j);
    const link::SwitchElection sw = link::elect_switch(views, p, failure, j, 0.0);
    EXPECT_EQ(sw.stay.burst_link, j);
    EXPECT_EQ(legacy::first_difference(sw.stay, pinned.back()), "") << "pinned=" << j;
  }
  // A free election picks the argmax over pinned elections — that very
  // element, bit for bit.
  const link::MultiLinkResult free = link::optimize_multilink(views, p, failure);
  for (int j = 0; j < static_cast<int>(views.size()); ++j) {
    EXPECT_GE(free.decision.utility, pinned[static_cast<std::size_t>(j)].decision.utility)
        << "pinned=" << j;
  }
  ASSERT_GE(free.burst_link, 0);
  const link::MultiLinkResult& elected = pinned[static_cast<std::size_t>(free.burst_link)];
  EXPECT_EQ(free.decision.d_opt_m, elected.decision.d_opt_m);
  EXPECT_EQ(free.decision.utility, elected.decision.utility);
  EXPECT_EQ(free.decision.evaluations, elected.decision.evaluations);
  EXPECT_EQ(free.trickle_bytes, elected.trickle_bytes);
  EXPECT_EQ(free.trickle_by_link, elected.trickle_by_link);
  // From any other link at margin 0 the switch election's challenger is
  // that same election.
  for (int j = 0; j < static_cast<int>(views.size()); ++j) {
    if (j == free.burst_link) continue;
    const link::SwitchElection sw = link::elect_switch(views, p, failure, j, 0.0);
    EXPECT_EQ(sw.challenger.burst_link, free.burst_link) << "stay=" << j;
    EXPECT_EQ(legacy::first_difference(sw.challenger, elected), "") << "stay=" << j;
  }
  // Empty link list: no usable election.
  const link::MultiLinkResult none = link::optimize_multilink({}, p, failure);
  EXPECT_EQ(none.burst_link, -1);
  EXPECT_EQ(none.decision.utility, 0.0);
  const link::SwitchElection nobody = link::elect_switch({}, p, failure, 0, 0.0);
  EXPECT_EQ(nobody.stay.burst_link, -1);
  EXPECT_EQ(nobody.challenger.burst_link, -1);
}

TEST(MultiLinkContract, TrickleBytesBasics) {
  const std::shared_ptr<const link::LinkSet> set = full_link_set();
  const link::LinkBackend& cell = set->backend(1);
  const link::MultiLinkParams p{2000.0, 10.0, 1e9, 20.0};
  // No ferry leg, no trickle (and cdelay can never hit zero because of it).
  EXPECT_EQ(link::trickle_bytes(cell, p.d0_m, p), 0.0);
  // A real ferry leg ships a positive, finite trickle bounded by
  // availability * window * peak rate.
  const double tr = link::trickle_bytes(cell, 100.0, p);
  EXPECT_GT(tr, 0.0);
  const double window = (p.d0_m - 100.0) / p.speed_mps - cell.config().session_setup_s;
  EXPECT_LE(tr, cell.availability() * window * cell.config().cell_peak_bps / 8.0);
  // A session setup longer than the ferry leg leaves no window.
  const link::MultiLinkParams quick{120.0, 100.0, 1e9, 20.0};
  EXPECT_EQ(link::trickle_bytes(cell, 119.0, quick), 0.0);
}

// ---- DecisionService wiring -------------------------------------------------

TEST(MultiLinkContract, ServiceSingletonMatchesLegacyDecide) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::wifi_80211n();
  const core::PaperLogThroughput model(cfg.wifi_a, cfg.wifi_b, cfg.name, cfg.wifi_scale,
                                       cfg.min_distance_m);
  policy::DecisionService service(model);
  service.install_links(std::make_shared<const link::LinkSet>(
      std::vector<link::LinkBackendConfig>{cfg}));
  ASSERT_TRUE(service.has_links());

  FOR_ALL(40, 0x5E4EULL, g) {
    policy::Query q;
    q.d0_m = g.uniform(50.0, 3000.0);
    q.speed_mps = g.uniform(1.0, 25.0);
    q.mdata_bytes = g.uniform(1e5, 1e9);
    q.rho_per_m = g.chance(0.2) ? 0.0 : g.uniform(1e-5, 5e-3);
    const policy::Decision want = service.decide_one(q);
    const policy::MultiLinkDecision got = service.decide_multilink_one(q);
    EXPECT_EQ(got.decision.d_opt_m, want.d_opt_m);
    EXPECT_EQ(got.decision.utility, want.utility);
    EXPECT_EQ(got.decision.cdelay_s, want.cdelay_s);
    EXPECT_EQ(got.decision.discount, want.discount);
    EXPECT_EQ(got.decision.boundary, want.boundary);
    EXPECT_EQ(got.decision.evaluations, want.evaluations);
    EXPECT_EQ(got.burst_link, 0);
    EXPECT_EQ(got.trickle_bytes, 0.0);
  }
}

TEST(MultiLinkContract, ServiceBatchMatchesOneByOneAndValidates) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::wifi_80211n();
  const core::PaperLogThroughput model(cfg.wifi_a, cfg.wifi_b, cfg.name, cfg.wifi_scale,
                                       cfg.min_distance_m);
  policy::DecisionService bare(model);
  EXPECT_FALSE(bare.has_links());
  policy::Query q;
  q.d0_m = 500.0;
  q.mdata_bytes = 1e7;
  q.speed_mps = 10.0;
  // Graceful degradation: no installed link set answers with the
  // single-link exact optimum, tagged — not an exception.
  const policy::MultiLinkDecision fb = bare.decide_multilink_one(q);
  EXPECT_EQ(fb.decision.fallback_reason, policy::FallbackReason::kNoLinkSet);
  EXPECT_EQ(fb.burst_link, -1);
  EXPECT_EQ(fb.trickle_bytes, 0.0);
  EXPECT_EQ(fb.burst_bytes, q.mdata_bytes);
  const policy::Decision exact = bare.decide_one(q);
  EXPECT_EQ(fb.decision.d_opt_m, exact.d_opt_m);
  EXPECT_EQ(fb.decision.utility, exact.utility);

  policy::DecisionService service(model);
  service.install_links(full_link_set());
  std::vector<policy::Query> queries(3, q);
  queries[1].d0_m = 1500.0;
  queries[2].rho_per_m = 2e-3;
  std::vector<policy::MultiLinkDecision> out(3);
  service.decide_multilink(queries, out);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const policy::MultiLinkDecision one = service.decide_multilink_one(queries[i]);
    EXPECT_EQ(out[i].decision.d_opt_m, one.decision.d_opt_m);
    EXPECT_EQ(out[i].decision.utility, one.decision.utility);
    EXPECT_EQ(out[i].burst_link, one.burst_link);
    EXPECT_EQ(out[i].trickle_bytes, one.trickle_bytes);
  }

  // Switch elections: the stay decision is the election pinned to that
  // link, and from any link but the elected one, at margin 0, the
  // challenger is the free election's answer, bit for bit. One solve
  // answers each.
  const std::uint64_t exact_before = service.counters().exact;
  const policy::SwitchDecision from1 = service.decide_switch(queries[2], 1, 0.0);
  EXPECT_EQ(service.counters().exact, exact_before + 1);
  EXPECT_EQ(from1.stay.burst_link, 1);
  EXPECT_EQ(from1.stay.decision.fallback_reason, policy::FallbackReason::kNone);
  const link::MultiLinkResult pinned = legacy::ref::optimize_multilink(
      service.links()->views(),
      {queries[2].d0_m, queries[2].speed_mps, queries[2].mdata_bytes, queries[2].min_distance_m},
      uav::FailureModel(queries[2].rho_per_m), {}, 1);
  EXPECT_EQ(from1.stay.decision.d_opt_m, pinned.decision.d_opt_m);
  EXPECT_EQ(from1.stay.decision.utility, pinned.decision.utility);
  EXPECT_EQ(from1.stay.trickle_bytes, pinned.trickle_bytes);
  EXPECT_EQ(from1.stay.burst_bytes, pinned.burst_bytes);
  const std::int32_t elected = out[2].burst_link;
  ASSERT_GE(elected, 0);
  for (std::int32_t j = 0; j < 4; ++j) {
    const policy::SwitchDecision sw = service.decide_switch(queries[2], j, 0.0);
    EXPECT_EQ(sw.stay.burst_link, j);
    EXPECT_LE(sw.stay.decision.utility, out[2].decision.utility);
    const policy::MultiLinkDecision& same = j == elected ? sw.stay : sw.challenger;
    EXPECT_EQ(same.burst_link, elected);
    EXPECT_EQ(same.decision.d_opt_m, out[2].decision.d_opt_m);
    EXPECT_EQ(same.decision.utility, out[2].decision.utility);
    EXPECT_EQ(same.decision.evaluations, out[2].decision.evaluations);
    EXPECT_EQ(same.trickle_bytes, out[2].trickle_bytes);
  }

  std::vector<policy::MultiLinkDecision> wrong(2);
  EXPECT_THROW(service.decide_multilink(queries, wrong), std::invalid_argument);
}

/// The switch election degrades like decide_multilink_one: with no link
/// set (or an empty one) the stay decision is the tagged single-link
/// fallback and no link challenges it. A stay link outside a usable set
/// is an error.
TEST(MultiLinkContract, ServiceSwitchElectionFallsBack) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::wifi_80211n();
  const core::PaperLogThroughput model(cfg.wifi_a, cfg.wifi_b, cfg.name, cfg.wifi_scale,
                                       cfg.min_distance_m);
  policy::Query q;
  q.d0_m = 800.0;
  q.mdata_bytes = 3e7;
  q.speed_mps = 8.0;
  q.rho_per_m = 5e-4;

  policy::DecisionService bare(model);
  policy::DecisionService empty(model);
  empty.install_links(std::make_shared<const link::LinkSet>());
  for (const policy::DecisionService* service : {&bare, &empty}) {
    const policy::MultiLinkDecision one = service->decide_multilink_one(q);
    EXPECT_EQ(one.decision.fallback_reason, policy::FallbackReason::kNoLinkSet);
    const std::uint64_t exact_before = service->counters().exact;
    const policy::SwitchDecision sw = service->decide_switch(q, 0, 0.0);
    EXPECT_EQ(service->counters().exact, exact_before + 1);
    const policy::MultiLinkDecision& d = sw.stay;
    EXPECT_EQ(d.decision.fallback_reason, policy::FallbackReason::kNoLinkSet);
    EXPECT_EQ(d.burst_link, -1);
    EXPECT_EQ(d.trickle_bytes, 0.0);
    EXPECT_EQ(d.burst_bytes, q.mdata_bytes);
    EXPECT_EQ(d.decision.d_opt_m, one.decision.d_opt_m);
    EXPECT_EQ(d.decision.utility, one.decision.utility);
    EXPECT_EQ(sw.challenger.burst_link, -1);
  }

  // Two links: link 1 stays, link 2 is past the set.
  policy::DecisionService service(model);
  service.install_links(std::make_shared<const link::LinkSet>(
      std::vector<link::LinkBackendConfig>{cfg, link::LinkBackendConfig::cellular()}));
  EXPECT_EQ(service.decide_switch(q, 1, 0.05).stay.burst_link, 1);
  const std::uint64_t exact_before = service.counters().exact;
  EXPECT_THROW((void)service.decide_switch(q, 2, 0.05), std::invalid_argument);
  EXPECT_THROW((void)service.decide_switch(q, -1, 0.05), std::invalid_argument);
  EXPECT_EQ(service.counters().exact, exact_before);
}

/// With one installed link the switch election's stay decision is the
/// free election, with nothing to switch to: for the 802.11n singleton
/// that is core::optimize()'s answer bit for bit.
TEST(MultiLinkContract, ServiceSwitchSingletonIsTheFreeElection) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::wifi_80211n();
  const core::PaperLogThroughput model(cfg.wifi_a, cfg.wifi_b, cfg.name, cfg.wifi_scale,
                                       cfg.min_distance_m);
  policy::DecisionService service(model);
  service.install_links(std::make_shared<const link::LinkSet>(
      std::vector<link::LinkBackendConfig>{cfg}));
  FOR_ALL(20, 0x1E1EULL, g) {
    policy::Query q;
    q.d0_m = g.uniform(10.0, 3000.0);
    q.speed_mps = g.uniform(1.0, 25.0);
    q.mdata_bytes = g.uniform(1e5, 1e9);
    q.rho_per_m = g.chance(0.2) ? 0.0 : g.uniform(1e-5, 5e-3);
    const policy::SwitchDecision sw = service.decide_switch(q, 0, 0.0);
    const policy::MultiLinkDecision free = service.decide_multilink_one(q);
    const policy::Decision legacy = service.decide_one(q);
    const policy::Decision& got = sw.stay.decision;
    EXPECT_EQ(sw.challenger.burst_link, -1);
    EXPECT_EQ(sw.stay.burst_link, 0);
    EXPECT_EQ(sw.stay.trickle_bytes, 0.0);
    EXPECT_EQ(sw.stay.burst_bytes, q.mdata_bytes);
    for (const policy::Decision* want : {&free.decision, &legacy}) {
      EXPECT_EQ(got.d_opt_m, want->d_opt_m);
      EXPECT_EQ(got.utility, want->utility);
      EXPECT_EQ(got.cdelay_s, want->cdelay_s);
      EXPECT_EQ(got.discount, want->discount);
      EXPECT_EQ(got.boundary, want->boundary);
      EXPECT_EQ(got.evaluations, want->evaluations);
    }
  }
}

/// decide_multilink is const and shared: the TSan tree runs this to
/// prove concurrent multi-link decisions on one service are race-free.
TEST(MultiLinkContract, ServiceConcurrentDecidesAreRaceFree) {
  const link::LinkBackendConfig cfg = link::LinkBackendConfig::wifi_80211n();
  const core::PaperLogThroughput model(cfg.wifi_a, cfg.wifi_b, cfg.name, cfg.wifi_scale,
                                       cfg.min_distance_m);
  policy::DecisionService service(model);
  service.install_links(full_link_set());

  policy::Query q;
  q.d0_m = 1200.0;
  q.speed_mps = 12.0;
  q.mdata_bytes = 4e7;
  q.rho_per_m = 1e-3;
  const policy::MultiLinkDecision want = service.decide_multilink_one(q);
  const policy::SwitchDecision want_switch = service.decide_switch(q, 1, 0.0);

  // Half the threads run free elections, half switch elections, at once.
  std::vector<std::thread> pool;
  std::vector<policy::MultiLinkDecision> got(8);
  std::vector<policy::SwitchDecision> got_switch(8);
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&, t] {
      const auto ti = static_cast<std::size_t>(t);
      if (t % 2 == 0) {
        got[ti] = service.decide_multilink_one(q);
      } else {
        got_switch[ti] = service.decide_switch(q, 1, 0.0);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    if (t % 2 == 0) {
      const policy::MultiLinkDecision& d = got[t];
      EXPECT_EQ(d.decision.d_opt_m, want.decision.d_opt_m);
      EXPECT_EQ(d.decision.utility, want.decision.utility);
      EXPECT_EQ(d.burst_link, want.burst_link);
      EXPECT_EQ(d.trickle_bytes, want.trickle_bytes);
      continue;
    }
    const policy::SwitchDecision& d = got_switch[t];
    for (const auto& [g, w] : {std::pair{&d.stay, &want_switch.stay},
                               std::pair{&d.challenger, &want_switch.challenger}}) {
      EXPECT_EQ(g->decision.d_opt_m, w->decision.d_opt_m);
      EXPECT_EQ(g->decision.utility, w->decision.utility);
      EXPECT_EQ(g->burst_link, w->burst_link);
      EXPECT_EQ(g->trickle_bytes, w->trickle_bytes);
    }
  }
}

/// End-to-end smoke: a FleetEngine with FleetConfig::links set routes
/// spawn decisions through the joint optimizer — missions report an
/// elected burst link, trickled bytes are credited on arrival, and the
/// run is bit-identical across thread counts. A null-links engine on
/// the same missions keeps the legacy path (burst_link stays -1).
TEST(MultiLinkContract, FleetEngineRoutesSpawnDecisionsThroughLinks) {
  const auto run_fleet = [](std::shared_ptr<const link::LinkSet> links, int threads) {
    fleet::FleetConfig cfg;
    cfg.links = std::move(links);
    cfg.threads = threads;
    fleet::FleetEngine eng(cfg, /*seed=*/7);
    for (int i = 0; i < 6; ++i) {
      fleet::MissionSpec m;
      m.start_pos = {150.0 + 40.0 * i, 30.0 * i, 50.0};
      m.receiver_pos = {0.0, 0.0, 0.0};
      m.mdata_bytes = 2e6;
      m.rho_per_m = 0.0;
      eng.add_mission(m);
    }
    eng.run_until(240.0);
    std::vector<fleet::MissionStatus> out;
    for (int i = 0; i < 6; ++i) out.push_back(eng.mission(i));
    return out;
  };

  const auto multi = run_fleet(full_link_set(), 1);
  for (const fleet::MissionStatus& st : multi) {
    EXPECT_GE(st.burst_link, 0);
    EXPECT_LT(st.burst_link, 4);
    EXPECT_LE(st.trickle_bytes, st.bytes_total);
    EXPECT_GT(st.utility, 0.0);
  }
  EXPECT_TRUE(std::any_of(multi.begin(), multi.end(), [](const fleet::MissionStatus& st) {
    return st.bytes_delivered > 0;
  })) << "multi-link fleet should make progress within the horizon";

  // Thread-count bit-identity carries over to the multi-link path.
  const auto multi8 = run_fleet(full_link_set(), 8);
  ASSERT_EQ(multi.size(), multi8.size());
  for (std::size_t i = 0; i < multi.size(); ++i) {
    EXPECT_EQ(multi[i].burst_link, multi8[i].burst_link);
    EXPECT_EQ(multi[i].trickle_bytes, multi8[i].trickle_bytes);
    EXPECT_EQ(multi[i].d_star_m, multi8[i].d_star_m);
    EXPECT_EQ(multi[i].bytes_delivered, multi8[i].bytes_delivered);
    EXPECT_EQ(multi[i].completed_t_s, multi8[i].completed_t_s);
  }

  // Null links: legacy path, no election, no trickle.
  for (const fleet::MissionStatus& st : run_fleet(nullptr, 1)) {
    EXPECT_EQ(st.burst_link, -1);
    EXPECT_EQ(st.trickle_bytes, 0u);
  }
}

/// The burst *simulation* honors the election. A contact far beyond
/// wifi range elects a non-wifi link, and the transfer must run over
/// that backend's rate/PER model — before this was wired through, the
/// fleet reported a non-wifi decision yet simulated the burst over the
/// 802.11n MAC at PER ~1, stalling the mission forever.
TEST(MultiLinkContract, FleetSimulatesBurstOverElectedBackend) {
  const auto run_fleet = [](int threads) {
    fleet::FleetConfig cfg;
    // wifi (dead past ~450 m) + LEO (distance-independent rate): at
    // d0 = 3 km the election must leave wifi.
    cfg.links = std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
        link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::leo()});
    cfg.threads = threads;
    fleet::FleetEngine eng(cfg, /*seed=*/11);
    fleet::MissionSpec m;
    m.start_pos = {3000.0, 0.0, 50.0};
    m.receiver_pos = {0.0, 0.0, 0.0};
    m.mdata_bytes = 2e6;
    m.rho_per_m = 1e-3;
    eng.add_mission(m);
    eng.run_until(600.0);
    return eng.mission(0);
  };

  const fleet::MissionStatus st = run_fleet(1);
  EXPECT_EQ(st.burst_link, 1) << "3 km contact must elect the LEO link over dead wifi";
  EXPECT_EQ(st.phase, fleet::Phase::kDone)
      << "the elected backend must actually deliver the burst";
  EXPECT_EQ(st.bytes_delivered, st.bytes_total);
  EXPECT_GT(st.mpdus_attempted, 0u);
  EXPECT_GT(st.completed_t_s, st.arrived_t_s) << "LEO session setup + ARQ rounds take time";

  // Row-local generic transfers keep thread-count bit-identity.
  const fleet::MissionStatus st8 = run_fleet(8);
  EXPECT_EQ(st.bytes_delivered, st8.bytes_delivered);
  EXPECT_EQ(st.completed_t_s, st8.completed_t_s);
  EXPECT_EQ(st.mpdus_attempted, st8.mpdus_attempted);
  EXPECT_EQ(st.mpdus_delivered, st8.mpdus_delivered);
}

}  // namespace
}  // namespace skyferry
