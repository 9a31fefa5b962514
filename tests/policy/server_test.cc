#include "policy/server.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/throughput_model.h"

namespace skyferry::policy {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(LineServer, AnswersQueriesAndEchoesTheExactDecision) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in("300 10 28e6 2e-3\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);

  Query q;
  q.d0_m = 300.0;
  q.speed_mps = 10.0;
  q.mdata_bytes = 28e6;
  q.rho_per_m = 2e-3;
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], format_decision(service.decide_one(q)));
  EXPECT_EQ(lines[0].rfind("ok ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find(" exact"), std::string::npos);
}

TEST(LineServer, OptionalMinDistanceOverridesTheTemplate) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);
  std::istringstream in("300 10 28e6 2e-3 40\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);
  Query q;
  q.d0_m = 300.0;
  q.speed_mps = 10.0;
  q.mdata_bytes = 28e6;
  q.rho_per_m = 2e-3;
  q.min_distance_m = 40.0;
  EXPECT_EQ(lines_of(out.str())[0], format_decision(service.decide_one(q)));
}

TEST(LineServer, BatchFramingFlushesOnEndInArrivalOrder) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in(
      "begin\n"
      "300 10 28e6 1e-3\n"
      "300 10 28e6 5e-3\n"
      "end\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 2u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  Query q;
  q.d0_m = 300.0;
  q.speed_mps = 10.0;
  q.mdata_bytes = 28e6;
  q.rho_per_m = 1e-3;
  EXPECT_EQ(lines[0], format_decision(service.decide_one(q)));
  q.rho_per_m = 5e-3;
  EXPECT_EQ(lines[1], format_decision(service.decide_one(q)));
}

TEST(LineServer, ProtocolErrorsAreReportedNotFatal) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in(
      "not a query\n"
      "300 10 28e6 2e-3 40 extra\n"
      "end\n"
      "begin\n"
      "begin\n"
      "end\n"
      "# a comment\n"
      "\n"
      "300 10 28e6 2e-3\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind("err ", 0), 0u) << lines[0];       // unparsable
  EXPECT_NE(lines[1].find("trailing garbage"), std::string::npos);
  EXPECT_EQ(lines[2], "err no open batch");
  EXPECT_EQ(lines[3], "err already batching");
  // lines[4] is the good query's "ok ..." (the empty batch flushed
  // nothing), served after every error.
  EXPECT_EQ(lines[4].rfind("ok ", 0), 0u) << lines[4];
}

// The old stream reader stopped inside a field, or failed on the fifth
// and never reached its trailing-garbage check, and served these lines.
// Each field must now be one whole finite decimal.
TEST(LineServer, MalformedFieldsAreErrorsNotDroppedCharacters) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in(
      "300 10 28e6 2e-3 abc\n"
      "300 10 28e6 2e-3x\n"
      "300 10 28e6 2e-3 1e\n"
      "300 10 28e6 0x10\n"
      "300 10 28e6 2e-3 1e400\n"
      "300 10 inf 2e-3\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 0u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "err bad min_d 'abc'");
  EXPECT_EQ(lines[1], "err bad rho '2e-3x'");
  EXPECT_EQ(lines[2], "err bad min_d '1e'");
  EXPECT_EQ(lines[3], "err bad rho '0x10'");
  EXPECT_EQ(lines[4], "err bad min_d '1e400'");
  EXPECT_EQ(lines[5], "err bad mdata 'inf'");
}

TEST(LineServer, StatsAndQuitAndEofInsideBatch) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  ServerOptions opt;
  opt.banner = false;
  const LineServer server(service, opt);

  std::istringstream in(
      "300 10 28e6 2e-3\n"
      "stats\n"
      "begin\n"
      "300 10 28e6 1e-3\n");  // EOF with an open batch
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "stats table=0 exact=1");
  EXPECT_NE(lines[2].find("eof inside open batch (1 queries dropped)"), std::string::npos);
}

TEST(LineServer, BannerAdvertisesTableState) {
  const auto model = core::PaperLogThroughput::airplane();
  const DecisionService service(model);
  const LineServer server(service);  // banner on by default
  std::istringstream in("quit\n");
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 0u);
  EXPECT_NE(out.str().find("# skyferry_decide ready (table=no)"), std::string::npos);
}

}  // namespace
}  // namespace skyferry::policy
