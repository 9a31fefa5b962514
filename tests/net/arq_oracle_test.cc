// Exactness oracle for net::ArqSender: the window-bounded sender must
// behave bit for bit like the scanning sender it replaced
// (legacy::ArqSender) under any operation sequence — realistic and
// random selective acks (stale, duplicate, past the send frontier),
// timeouts, and checkpoint/resume mid-transfer.
#include <cstdint>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "net/arq.h"
#include "sim/rng.h"
#include "support/legacy_oracles.h"

namespace skyferry::net {
namespace {

void expect_same_packet(const std::optional<Packet>& want, const std::optional<Packet>& got) {
  ASSERT_EQ(want.has_value(), got.has_value());
  if (!want) return;
  EXPECT_EQ(want->flow, got->flow);
  EXPECT_EQ(want->seq, got->seq);
  EXPECT_EQ(want->payload_bytes, got->payload_bytes);
  EXPECT_EQ(want->created_t_s, got->created_t_s);
  EXPECT_EQ(want->image_index, got->image_index);
}

void expect_same_state(const legacy::ArqSender& want, const ArqSender& got) {
  EXPECT_EQ(want.in_flight(), got.in_flight());
  EXPECT_EQ(want.complete(), got.complete());
  EXPECT_EQ(want.transmissions(), got.transmissions());
  EXPECT_EQ(want.retransmissions(), got.retransmissions());
  const ArqSenderState a = want.checkpoint();
  const ArqSenderState b = got.checkpoint();
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.frontier, b.frontier);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
}

/// A selective ack drawn at random: any cumulative value up to past the
/// batch end (stale ones included) and a random bitmap of up to two
/// windows.
SelectiveAck random_ack(sim::Rng& rng, std::uint32_t total, std::uint32_t window) {
  SelectiveAck ack;
  ack.cumulative = static_cast<std::uint32_t>(rng.uniform_int(total + window + 2));
  const auto len = static_cast<std::uint32_t>(rng.uniform_int(2 * window + 1));
  const double density = rng.uniform();
  for (std::uint32_t i = 0; i < len; ++i) ack.window_bitmap.push_back(rng.bernoulli(density));
  return ack;
}

/// Drive both senders with one seeded operation sequence and compare
/// after every step.
void run_oracle(std::uint32_t window, std::uint32_t total, std::uint64_t seed, int steps) {
  SCOPED_TRACE("window=" + std::to_string(window) + " batch=" + std::to_string(total) +
               " seed=" + std::to_string(seed));
  ArqConfig cfg;
  cfg.window = window;
  cfg.datagram_bytes = 1000;
  cfg.ack_every = 4;
  const FlowId flow = 3;
  legacy::ArqSender want(cfg, total, flow);
  ArqSender got(cfg, total, flow);
  ArqReceiver rx(cfg, total);
  sim::Rng rng(seed);
  SelectiveAck last_ack;
  double now = 0.0;

  auto apply = [&](const SelectiveAck& ack) {
    want.on_ack(ack);
    got.on_ack(ack);
    last_ack = ack;
  };

  for (int step = 0; step < steps; ++step) {
    now += 0.001;
    const double op = rng.uniform();
    if (op < 0.50) {
      const auto a = want.next_packet(now);
      const auto b = got.next_packet(now);
      expect_same_packet(a, b);
      if (a && rng.bernoulli(0.85)) {
        if (auto ack = rx.on_packet(*a); ack && rng.bernoulli(0.9)) apply(*ack);
      }
    } else if (op < 0.65) {
      apply(rx.make_ack());
    } else if (op < 0.75) {
      apply(random_ack(rng, total, window));
    } else if (op < 0.80) {
      apply(last_ack);  // duplicate
    } else if (op < 0.92) {
      want.on_timeout();
      got.on_timeout();
    } else if (op < 0.95) {
      // Checkpoint -> resume, each sender from its own checkpoint.
      want = legacy::ArqSender::resume(cfg, want.checkpoint(), flow);
      got = ArqSender::resume(cfg, got.checkpoint(), flow);
      rx = ArqReceiver::resume(cfg, rx.checkpoint());
    } else {
      // A burst of sends with nothing delivered (an outage).
      for (int i = 0; i < 8; ++i) expect_same_packet(want.next_packet(now), got.next_packet(now));
    }
    expect_same_state(want, got);
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
  }
}

TEST(ArqOracle, MatchesScanningSender) {
  for (const std::uint32_t window : {1u, 8u, 64u}) {
    for (const std::uint32_t total : {1u, 256u, 4096u}) {
      for (const std::uint64_t seed : {1ull, 2ull}) {
        run_oracle(window, total, sim::derive_seed(seed, "arq-oracle"),
                   total == 4096 ? 6000 : 1500);
      }
    }
  }
}

TEST(ArqOracle, MatchesScanningSenderOnRealisticTransfers) {
  // Realistic traffic only (receiver-generated acks, lossy data): the
  // paths a mission exercises, run to completion.
  for (const std::uint32_t window : {1u, 8u, 64u}) {
    ArqConfig cfg;
    cfg.window = window;
    const std::uint32_t total = 4096;
    legacy::ArqSender want(cfg, total);
    ArqSender got(cfg, total);
    ArqReceiver rx(cfg, total);
    sim::Rng rng(sim::derive_seed(window, "arq-oracle/realistic"));
    int steps = 0;
    while (!want.complete() && steps++ < 200000) {
      const auto a = want.next_packet(0.0);
      const auto b = got.next_packet(0.0);
      expect_same_packet(a, b);
      if (!a) {
        want.on_ack(rx.make_ack());
        got.on_ack(rx.make_ack());
      } else if (!rng.bernoulli(0.1)) {
        if (auto ack = rx.on_packet(*a)) {
          want.on_ack(*ack);
          got.on_ack(*ack);
        }
      }
      ASSERT_EQ(want.in_flight(), got.in_flight()) << "window " << window << " step " << steps;
      ASSERT_EQ(want.transmissions(), got.transmissions());
    }
    EXPECT_TRUE(got.complete());
    expect_same_state(want, got);
  }
}

}  // namespace
}  // namespace skyferry::net
