#include "fault/recovery.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "fault/mission_sim.h"

namespace skyferry::fault {
namespace {

TEST(BackoffPolicy, GrowsExponentiallyAndCaps) {
  BackoffPolicy p;
  p.initial_s = 1.0;
  p.multiplier = 2.0;
  p.max_s = 10.0;
  p.jitter_fraction = 0.0;
  sim::Rng rng(1);
  EXPECT_DOUBLE_EQ(p.delay_s(0, rng), 1.0);
  EXPECT_DOUBLE_EQ(p.delay_s(1, rng), 2.0);
  EXPECT_DOUBLE_EQ(p.delay_s(2, rng), 4.0);
  EXPECT_DOUBLE_EQ(p.delay_s(5, rng), 10.0);  // capped
  EXPECT_FALSE(p.exhausted(7));
  EXPECT_TRUE(p.exhausted(8));
}

TEST(BackoffPolicy, JitterStaysInBand) {
  BackoffPolicy p;
  p.initial_s = 4.0;
  p.jitter_fraction = 0.25;
  sim::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = p.delay_s(0, rng);
    EXPECT_GE(d, 3.0);
    EXPECT_LE(d, 5.0);
  }
}


TEST(BackoffPolicy, HugeAttemptNumberStaysFiniteAndCapped) {
  // Regression: pow(multiplier, INT_MAX) used to overflow to inf. The
  // exponent is capped before exponentiation, so any attempt number
  // saturates at max_s.
  BackoffPolicy p;
  p.initial_s = 1.0;
  p.multiplier = 2.0;
  p.max_s = 60.0;
  p.jitter_fraction = 0.0;
  sim::Rng rng(3);
  for (int attempt : {64, 65, 1000, std::numeric_limits<int>::max()}) {
    const double d = p.delay_s(attempt, rng);
    EXPECT_TRUE(std::isfinite(d)) << attempt;
    EXPECT_DOUBLE_EQ(d, 60.0) << attempt;
  }
  EXPECT_DOUBLE_EQ(p.delay_s(-5, rng), 1.0);  // negative clamps to attempt 0
}

TEST(BackoffPolicy, JitteredDelayAtMaxAttemptsStaysWithinBaseAndCap) {
  // At saturation the deterministic delay equals max_s; the upward
  // jitter must be clamped back inside [.. , max_s] while the downward
  // jitter keeps its (1 - j) band.
  BackoffPolicy p;
  p.initial_s = 1.0;
  p.multiplier = 2.0;
  p.max_s = 30.0;
  p.max_attempts = 6;
  p.jitter_fraction = 0.25;
  sim::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const double d = p.delay_s(p.max_attempts, rng);
    EXPECT_GE(d, 30.0 * 0.75);
    EXPECT_LE(d, 30.0);
  }
}

TEST(ResumableTransfer, ResumesInsteadOfRestarting) {
  net::ArqConfig cfg;
  cfg.datagram_bytes = 1000;
  cfg.ack_every = 2;  // even cadence: the 6-packet prefix is fully acked
  ResumableTransfer xfer(cfg, 10000.0);  // 10 packets
  ASSERT_EQ(xfer.total_packets(), 10u);

  // Attempt 1: deliver 6 packets, ack them, then the link dies.
  xfer.begin_attempt();
  for (int i = 0; i < 6; ++i) {
    auto p = xfer.sender().next_packet(0.0);
    ASSERT_TRUE(p.has_value());
    if (auto ack = xfer.receiver().on_packet(*p)) xfer.sender().on_ack(*ack);
  }
  EXPECT_DOUBLE_EQ(xfer.delivered_bytes(), 6000.0);
  xfer.suspend();
  EXPECT_FALSE(xfer.active());
  // Progress survives the suspension.
  EXPECT_DOUBLE_EQ(xfer.delivered_bytes(), 6000.0);
  EXPECT_FALSE(xfer.complete());

  // Attempt 2: only the remaining 4 packets flow.
  xfer.begin_attempt();
  EXPECT_EQ(xfer.attempts(), 2);
  int sent = 0;
  while (auto p = xfer.sender().next_packet(1.0)) {
    ++sent;
    if (auto ack = xfer.receiver().on_packet(*p)) xfer.sender().on_ack(*ack);
    if (xfer.receiver().complete()) break;
  }
  EXPECT_EQ(sent, 4);
  EXPECT_TRUE(xfer.complete());
  EXPECT_DOUBLE_EQ(xfer.delivered_bytes(), 10000.0);
}

TEST(ResumableTransfer, InFlightAtSuspensionIsRetransmitted) {
  net::ArqConfig cfg;
  cfg.datagram_bytes = 500;
  cfg.ack_every = 100;  // no acks during the attempt
  ResumableTransfer xfer(cfg, 5000.0);  // 10 packets
  xfer.begin_attempt();
  // 3 packets leave the sender but none is acked (all died in the fade).
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(xfer.sender().next_packet(0.0).has_value());
  xfer.suspend();
  xfer.begin_attempt();
  // All 10 packets must still be deliverable.
  int sent = 0;
  while (auto p = xfer.sender().next_packet(1.0)) {
    ++sent;
    if (auto ack = xfer.receiver().on_packet(*p)) xfer.sender().on_ack(*ack);
    if (xfer.receiver().complete()) break;
  }
  EXPECT_EQ(sent, 10);
  EXPECT_TRUE(xfer.complete());
}

TEST(ResumableTransfer, PartialBytesNeverExceedTotal) {
  net::ArqConfig cfg;
  cfg.datagram_bytes = 999;
  ResumableTransfer xfer(cfg, 2500.0);  // 3 packets, last one padded
  xfer.begin_attempt();
  while (auto p = xfer.sender().next_packet(0.0)) {
    if (auto ack = xfer.receiver().on_packet(*p)) xfer.sender().on_ack(*ack);
    if (xfer.receiver().complete()) break;
  }
  EXPECT_TRUE(xfer.complete());
  EXPECT_DOUBLE_EQ(xfer.delivered_bytes(), 2500.0);
}

// ---- integration: crash mid-transfer yields partial data ---------------

TEST(RecoveryIntegration, CrashMidTransferDeliversPartialData) {
  // High crash rate + slow loiter burn keeps many crashes inside the
  // transfer window. Scan seeds for a trial that survived the approach
  // but crashed before completing; it must have delivered a strict
  // partial prefix, not zero and not everything.
  TrialSpec spec;
  spec.scenario = core::Scenario::quadrocopter();
  spec.faults = FaultPlan::crashes_only(2e-3);
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 400 && !found; ++seed) {
    const TrialResult r = run_mission_trial(spec, seed);
    if (r.survived_approach && r.crashed) {
      EXPECT_GT(r.delivered_bytes, 0.0) << "resumable ARQ lost the prefix, seed " << seed;
      EXPECT_LT(r.delivered_bytes, r.total_bytes);
      EXPECT_FALSE(r.delivered_all);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no crash-mid-transfer trial in 400 seeds; spec too benign";
}

TEST(RecoveryIntegration, OutagesForceResumedAttemptsThatStillComplete) {
  // Long fades versus a short stall timeout force retreat+resume cycles;
  // the transfer must still finish via checkpoint restore (attempts > 1)
  // in at least some trials, and resumed trials deliver everything.
  TrialSpec spec;
  spec.scenario = core::Scenario::quadrocopter();
  spec.faults.link_outage = {1.0 / 10.0, 8.0};
  spec.stall_timeout_s = 1.0;
  spec.retreat_after_stalls = 2;
  bool saw_resume = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const TrialResult r = run_mission_trial(spec, seed);
    if (r.rendezvous_attempts > 1 && r.delivered_all) {
      saw_resume = true;
      EXPECT_DOUBLE_EQ(r.delivered_bytes, r.total_bytes);
    }
  }
  EXPECT_TRUE(saw_resume) << "no resumed-and-completed transfer in 60 seeds";
}

}  // namespace
}  // namespace skyferry::fault
