#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace skyferry::core {
namespace {

// Figure-1 setting: quadrocopter link, ferry starts 80 m out with 20 MB.
struct Fig1 {
  PaperLogThroughput model = PaperLogThroughput::quadrocopter();
  SpeedDegradation deg{};  // Fig-7-calibrated default
  DeliveryParams params{80.0, 4.5, 20e6, 20.0};
};

TEST(Strategy, Labels) {
  EXPECT_EQ(to_string(StrategyKind::kTransmitNow), "transmit-now");
  StrategySpec s;
  s.kind = StrategyKind::kShipThenTransmit;
  s.target_distance_m = 60.0;
  EXPECT_EQ(s.label(), "d=60");
  s.kind = StrategyKind::kMoveAndTransmit;
  EXPECT_EQ(s.label(), "moving");
}

TEST(Strategy, TransmitNowMatchesAnalyticDelay) {
  Fig1 f;
  StrategySpec spec;
  spec.kind = StrategyKind::kTransmitNow;
  const auto out = simulate_strategy(spec, f.model, f.deg, f.params);
  ASSERT_TRUE(out.completed);
  const CommDelayModel delay(f.model, f.params);
  EXPECT_NEAR(out.completion_time_s, delay.cdelay_s(80.0), 0.2);
  EXPECT_DOUBLE_EQ(out.ship_time_s, 0.0);
  EXPECT_DOUBLE_EQ(out.final_distance_m, 80.0);
}

TEST(Strategy, ShipThenTransmitMatchesAnalyticDelay) {
  Fig1 f;
  StrategySpec spec;
  spec.kind = StrategyKind::kShipThenTransmit;
  spec.target_distance_m = 60.0;
  const auto out = simulate_strategy(spec, f.model, f.deg, f.params);
  ASSERT_TRUE(out.completed);
  const CommDelayModel delay(f.model, f.params);
  EXPECT_NEAR(out.completion_time_s, delay.cdelay_s(60.0), 0.2);
  EXPECT_NEAR(out.ship_time_s, 20.0 / 4.5, 0.1);
  EXPECT_NEAR(out.final_distance_m, 60.0, 0.01);
}

TEST(Strategy, Figure1Ordering) {
  // The paper's headline example: for 20 MB starting at 80 m, waiting to
  // transmit at d=60 m beats transmitting immediately at d=80 m, and
  // 'move and transmit' is outperformed by hover strategies.
  Fig1 f;
  const auto outcomes = compare_strategies({20.0, 40.0, 60.0, 80.0}, f.model, f.deg, f.params);
  ASSERT_EQ(outcomes.size(), 5u);  // 4 distances + moving
  auto time_of = [&](std::size_t i) { return outcomes[i].completion_time_s; };
  const double t20 = time_of(0), t40 = time_of(1), t60 = time_of(2), t80 = time_of(3);
  const double t_moving = time_of(4);
  EXPECT_LT(t60, t80);  // delayed gratification wins
  EXPECT_LT(t40, t80);
  // 'moving' loses to the best hover strategy.
  const double best_hover = std::min({t20, t40, t60, t80});
  EXPECT_GT(t_moving, best_hover);
}

TEST(Strategy, CrossoverFormulaMatchesSimulation) {
  Fig1 f;
  const double m_star = crossover_mdata_bytes(f.model, 80.0, 60.0, 4.5);
  ASSERT_TRUE(std::isfinite(m_star));
  // Paper reports ~15 MB for its measured rates; the fitted medians give
  // the same order of magnitude.
  EXPECT_GT(m_star, 4e6);
  EXPECT_LT(m_star, 20e6);

  // Below the crossover transmit-now wins; above, ship-then-transmit.
  auto race = [&](double mdata) {
    DeliveryParams p = f.params;
    p.mdata_bytes = mdata;
    StrategySpec now;
    now.kind = StrategyKind::kTransmitNow;
    StrategySpec ship;
    ship.kind = StrategyKind::kShipThenTransmit;
    ship.target_distance_m = 60.0;
    const double t_now = simulate_strategy(now, f.model, f.deg, p).completion_time_s;
    const double t_ship = simulate_strategy(ship, f.model, f.deg, p).completion_time_s;
    return t_ship - t_now;  // negative: shipping wins
  };
  EXPECT_GT(race(m_star * 0.5), 0.0);
  EXPECT_LT(race(m_star * 2.0), 0.0);
}

TEST(Strategy, CrossoverInfiniteWhenNoGain) {
  Fig1 f;
  // "Shipping" to the same distance can't improve throughput.
  EXPECT_EQ(crossover_mdata_bytes(f.model, 80.0, 80.0, 4.5),
            std::numeric_limits<double>::infinity());
}

TEST(Strategy, CurvesAreMonotone) {
  Fig1 f;
  for (auto kind : {StrategyKind::kTransmitNow, StrategyKind::kShipThenTransmit,
                    StrategyKind::kMoveAndTransmit, StrategyKind::kMixed}) {
    StrategySpec spec;
    spec.kind = kind;
    spec.target_distance_m = 50.0;
    const auto out = simulate_strategy(spec, f.model, f.deg, f.params);
    for (std::size_t i = 1; i < out.curve.size(); ++i) {
      EXPECT_GE(out.curve[i].delivered_mb, out.curve[i - 1].delivered_mb - 1e-9);
      EXPECT_GE(out.curve[i].t_s, out.curve[i - 1].t_s);
    }
    EXPECT_TRUE(out.completed) << to_string(kind);
    EXPECT_NEAR(out.curve.back().delivered_mb, 20.0, 0.01) << to_string(kind);
  }
}

TEST(Strategy, ShipPhaseDeliversNothing) {
  Fig1 f;
  StrategySpec spec;
  spec.kind = StrategyKind::kShipThenTransmit;
  spec.target_distance_m = 40.0;
  const auto out = simulate_strategy(spec, f.model, f.deg, f.params);
  const double tship = 40.0 / 4.5;
  for (const auto& pt : out.curve) {
    if (pt.t_s < tship - 0.1) {
      EXPECT_DOUBLE_EQ(pt.delivered_mb, 0.0);
    }
  }
}

TEST(Strategy, MixedBeatsPureShipForSmallData) {
  // Transmitting during the approach can only help when the while-moving
  // rate is nonzero.
  Fig1 f;
  DeliveryParams p = f.params;
  p.mdata_bytes = 5e6;
  StrategySpec ship;
  ship.kind = StrategyKind::kShipThenTransmit;
  ship.target_distance_m = 40.0;
  StrategySpec mixed;
  mixed.kind = StrategyKind::kMixed;
  mixed.target_distance_m = 40.0;
  const double t_ship = simulate_strategy(ship, f.model, f.deg, p).completion_time_s;
  const double t_mixed = simulate_strategy(mixed, f.model, f.deg, p).completion_time_s;
  EXPECT_LE(t_mixed, t_ship + 1e-9);
}

TEST(Strategy, AbortsWhenOutOfRangeForever) {
  const PaperLogThroughput quad = PaperLogThroughput::quadrocopter();
  SpeedDegradation deg{5.0};
  const DeliveryParams p{200.0, 4.5, 10e6, 20.0};
  StrategySpec now;
  now.kind = StrategyKind::kTransmitNow;  // parked at 200 m: s=0
  const auto out = simulate_strategy(now, quad, deg, p);
  EXPECT_FALSE(out.completed);
}

TEST(Strategy, MaxTimeAborts) {
  Fig1 f;
  StrategySpec now;
  now.kind = StrategyKind::kTransmitNow;
  const auto out = simulate_strategy(now, f.model, f.deg, f.params, 0.05, 1.0);
  EXPECT_FALSE(out.completed);
  EXPECT_NEAR(out.completion_time_s, 1.0, 0.1);
}

}  // namespace
}  // namespace skyferry::core
