// Pinned trial results: an FNV-1a digest of the trial_codec bytes of 300
// seeded mission trials per spec. The digests were recorded on the
// simulator that ran every trial to max_time_s; a trial that stops its
// event loop at the verdict must reproduce every TrialResult field —
// link_outages and gps_dropouts included — bit for bit.
#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "fault/mission_sim.h"
#include "fault/trial_codec.h"

namespace skyferry::fault {
namespace {

constexpr int kTrials = 300;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest(const TrialSpec& spec) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < kTrials; ++i) {
    const TrialResult r = run_mission_trial(spec, static_cast<std::uint64_t>(i) + 1);
    h = fnv1a(h, exp::Codec<TrialResult>::encode(r).dump());
    h = fnv1a(h, "\n");
  }
  return h;
}

TrialSpec harsh() {
  TrialSpec spec;
  spec.with_faults(FaultPlan::harsh());
  return spec;
}

TEST(TrialDigest, Harsh) { EXPECT_EQ(digest(harsh()), 0x39946e06e5e18742ull); }

TEST(TrialDigest, HarshWithResilience) {
  TrialSpec spec = harsh();
  spec.resilience.enabled = true;
  EXPECT_EQ(digest(spec), 0x1ea752085949ad3aull);
}

TEST(TrialDigest, HarshWithLinkChaos) {
  TrialSpec spec = harsh();
  spec.with_link_chaos(LinkFaultPlan::harsh(1));
  EXPECT_EQ(digest(spec), 0x8e700d150347ae5eull);
}

TEST(TrialDigest, HarshWithAggregateLinkSimulator) {
  TrialSpec spec = harsh();
  spec.with_link_simulator(true, mac::LinkFidelity::kAggregate).with_shared_link_tables();
  EXPECT_EQ(digest(spec), 0x5828c166ec5973f2ull);
}

}  // namespace
}  // namespace skyferry::fault
