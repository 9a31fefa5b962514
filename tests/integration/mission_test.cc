// End-to-end mission: a collector quadrocopter has photographed its
// sector; a planner decides the rendezvous distance; the ferry flies
// there under the autopilot; the batch is transferred over the simulated
// 802.11n link with geometry taken from the actual flight; telemetry and
// the transmit command ride the XBee control channel.
#include <cmath>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "ctrl/control_channel.h"
#include "ctrl/sector.h"
#include "mac/link.h"
#include "net/arq.h"
#include "net/flow.h"
#include "uav/uav.h"

namespace skyferry {
namespace {

class MissionTest : public ::testing::Test {
 protected:
  static constexpr double kDt = 0.05;

  /// Tick both UAVs until `pred` or timeout; returns elapsed time.
  template <typename Pred>
  double run_until(uav::Uav& a, uav::Uav& b, double& t, double timeout, Pred pred) {
    const double start = t;
    while (t - start < timeout && !pred()) {
      a.tick(t, kDt);
      b.tick(t, kDt);
      t += kDt;
    }
    return t - start;
  }
};

TEST_F(MissionTest, QuadFerryDeliversSectorBatch) {
  const core::Scenario scen = core::Scenario::quadrocopter();

  // Collector hovers at its sector center with the collected batch.
  uav::UavConfig hcfg;
  hcfg.id = "collector";
  hcfg.platform = scen.platform;
  hcfg.start_pos = {0.0, 0.0, 10.0};
  uav::Uav collector(hcfg, 1);
  collector.goto_and_hold({0.0, 0.0, 10.0});

  // Ferry comes into range at d0 = 100 m.
  uav::UavConfig fcfg;
  fcfg.id = "ferry";
  fcfg.platform = scen.platform;
  fcfg.start_pos = {100.0, 0.0, 10.0};
  uav::Uav ferry(fcfg, 2);

  // The batch the collector gathered (paper quad scenario: ~56 MB).
  const auto plan =
      ctrl::plan_sector_imaging(scen.camera, scen.sector_width_m * scen.sector_height_m,
                                scen.survey_altitude_m);
  EXPECT_NEAR(plan.batch.total_mb(), 56.2, 1.5);

  // Planner decision over the control channel.
  const auto model = scen.paper_throughput();
  const core::DelayedGratificationPlanner planner(model, scen.failure_model());
  core::DeliveryParams params = scen.delivery_params();
  params.mdata_bytes = plan.batch.total_bytes();
  const core::Decision dec = planner.decide(params);
  ASSERT_EQ(dec.strategy.kind, core::StrategyKind::kShipThenTransmit);

  sim::Simulator simclock;
  ctrl::ControlChannel channel(simclock);
  ctrl::TransmitCommand cmd;
  cmd.uav_id = "ferry";
  cmd.peer_id = "collector";
  cmd.transmit_distance_m = dec.strategy.target_distance_m;
  bool cmd_received = false;
  ASSERT_TRUE(channel.send(cmd, 100.0, [&](const ctrl::ControlMessage& m, double) {
    cmd_received = std::holds_alternative<ctrl::TransmitCommand>(m);
  }));
  simclock.run();
  ASSERT_TRUE(cmd_received);

  // Ferry flies to the commanded distance (on the line to the collector).
  ferry.goto_and_hold({dec.strategy.target_distance_m, 0.0, 10.0});
  double t = 0.0;
  const double ship_time = run_until(collector, ferry, t, 120.0, [&] {
    return geo::distance(ferry.position(), collector.position()) <=
           dec.strategy.target_distance_m + 4.0;
  });
  EXPECT_LT(ship_time, 119.0);  // arrived before timeout

  // Transfer the batch over the full-stack link, geometry from the live
  // UAV state (they keep hovering during the transfer).
  mac::LinkConfig lcfg;
  lcfg.channel = phy::ChannelConfig::quadrocopter();
  mac::MinstrelConfig mcfg;
  mac::MinstrelHt rc(mcfg, 3);
  mac::LinkSimulator link(lcfg, rc, 42);
  auto geom = [&](double) {
    return mac::Geometry{geo::distance(ferry.position(), collector.position()),
                         ferry.speed() + collector.speed()};
  };
  const auto res = link.run_transfer(
      static_cast<std::uint64_t>(plan.batch.total_bytes()), 600.0, geom);
  ASSERT_TRUE(res.completed);

  const double total_time = ship_time + res.duration_s;

  // Against naive transmit-now at 100 m: the paper quad fit gives
  // s(100) ~ 3.3 Mb/s -> ~137 s for 56 MB. The delayed plan must win.
  const core::CommDelayModel delay(model, params);
  const double naive = delay.cdelay_s(100.0);
  EXPECT_LT(total_time, naive);

  // And the batch is fully accounted for.
  EXPECT_GE(res.payload_bits_delivered / 8.0, plan.batch.total_bytes() * 0.999);
}

TEST_F(MissionTest, FailureMidFlightDeliversNothingOnceDown) {
  // Fig. 2's lesson: push too close and a failure voids the whole batch.
  // Force a battery failure during the approach and observe the loss.
  const core::Scenario scen = core::Scenario::quadrocopter();
  uav::UavConfig fcfg;
  fcfg.id = "ferry";
  fcfg.platform = scen.platform;
  fcfg.start_pos = {100.0, 0.0, 10.0};
  uav::Uav ferry(fcfg, 9);
  ferry.battery().drain(scen.platform.battery_autonomy_s * 0.999,
                        scen.platform.cruise_speed_mps);  // nearly empty
  ferry.goto_and_hold({20.0, 0.0, 10.0});
  double t = 0.0;
  for (int i = 0; i < 4000 && !ferry.battery().depleted(); ++i) {
    ferry.tick(t, kDt);
    t += kDt;
  }
  EXPECT_TRUE(ferry.battery().depleted());
  // The vehicle is down before reaching the rendezvous.
  EXPECT_GT(geo::distance(ferry.position(), {20.0, 0.0, 10.0}), 5.0);
}

TEST_F(MissionTest, ArqDeliversEveryImageOverLossyLink) {
  // End-to-end reliability: the MAC loses MPDUs (Block-ACK recovers most
  // but the sender's view can desynchronize), so the mission runs a
  // selective-repeat ARQ over the datagram stream. Every image datagram
  // must eventually land, exactly once, over a 60 m quad link.
  const net::DataBatch batch{20, 0.39e6};  // 20 images, 7.8 MB
  net::ArqConfig acfg;
  const auto packets_per_image = static_cast<std::uint32_t>(
      std::ceil(batch.image_bytes / static_cast<double>(acfg.datagram_bytes)));
  const std::uint32_t total = packets_per_image * batch.num_images;

  net::ArqSender tx(acfg, total);
  net::ArqReceiver rx(acfg, total);
  net::FlowSink sink;

  // Datagram loss process derived from the PHY: sample the channel and
  // apply the MPDU PER at MCS1, like one A-MPDU subframe per datagram.
  phy::LinkChannel channel(phy::ChannelConfig::quadrocopter(), 99);
  const phy::ErrorModel error(0.85);
  sim::Rng rng(7);
  double t = 0.0;
  std::uint64_t steps = 0;
  while (!tx.complete() && steps++ < 2'000'000) {
    auto p = tx.next_packet(t);
    if (!p) {
      tx.on_ack(rx.make_ack());
      continue;
    }
    t += 1.4e-3;  // ~exchange time per datagram
    const double snr = channel.snr_db(t, 60.0, 0.0);
    const double per = error.packet_error_rate(phy::mcs(1), snr, 1536 * 8);
    if (!rng.bernoulli(per)) {
      sink.deliver(*p, t);
      if (auto ack = rx.on_packet(*p)) tx.on_ack(*ack);
    }
  }
  ASSERT_TRUE(tx.complete());
  ASSERT_TRUE(rx.complete());
  EXPECT_EQ(sink.complete_images(packets_per_image), batch.num_images);
  // Reliability costs retransmissions but not unbounded ones.
  EXPECT_GT(tx.retransmissions(), 0u);
  EXPECT_LT(tx.transmissions(), static_cast<std::uint64_t>(total) * 3u);
}

TEST_F(MissionTest, SectorAssignmentOnePerUav) {
  // The paper's mission layout: the area is divided into sectors, one
  // UAV exclusively responsible per sector.
  const auto sectors = ctrl::make_sector_grid(200.0, 100.0, 2, 1, 10.0);
  ASSERT_EQ(sectors.size(), 2u);
  uav::UavConfig c1, c2;
  c1.platform = c2.platform = uav::PlatformSpec::arducopter();
  c1.id = "u1";
  c2.id = "u2";
  c1.start_pos = sectors[0].center();
  c2.start_pos = sectors[1].center();
  uav::Uav u1(c1, 11), u2(c2, 12);
  EXPECT_TRUE(sectors[0].contains(u1.position()));
  EXPECT_TRUE(sectors[1].contains(u2.position()));
  EXPECT_FALSE(sectors[0].contains(u2.position()));
}

}  // namespace
}  // namespace skyferry
