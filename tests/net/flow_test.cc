#include "net/flow.h"

#include <gtest/gtest.h>

namespace skyferry::net {
namespace {

TEST(FlowSink, CountsUniqueAndDuplicates) {
  FlowSink sink;
  Packet p;
  p.seq = 0;
  p.payload_bytes = 100;
  sink.deliver(p, 1.0);
  sink.deliver(p, 2.0);  // duplicate
  p.seq = 1;
  sink.deliver(p, 3.0);
  EXPECT_EQ(sink.unique_packets(), 2u);
  EXPECT_EQ(sink.duplicate_packets(), 1u);
  EXPECT_EQ(sink.bytes(), 200u);
  EXPECT_DOUBLE_EQ(sink.last_delivery_t_s(), 3.0);
}

TEST(FlowSink, CompleteImagesRequiresAllPackets) {
  FlowSink sink;
  Packet p;
  p.payload_bytes = 10;
  // Images of 3 packets each; deliver image0 fully, image1 partially.
  for (std::uint32_t s : {0u, 1u, 2u, 3u, 5u}) {
    p.seq = s;
    sink.deliver(p, 0.0);
  }
  EXPECT_EQ(sink.complete_images(3), 1u);
  p.seq = 4;
  sink.deliver(p, 0.0);
  EXPECT_EQ(sink.complete_images(3), 2u);
}

TEST(FlowSink, EmptySink) {
  FlowSink sink;
  EXPECT_EQ(sink.unique_packets(), 0u);
  EXPECT_EQ(sink.complete_images(10), 0u);
  EXPECT_EQ(sink.highest_seq_plus_one(), 0u);
}

}  // namespace
}  // namespace skyferry::net
