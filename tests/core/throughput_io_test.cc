#include "core/throughput_io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/optimizer.h"
#include "core/scenario.h"

namespace skyferry::core {
namespace {

class ThroughputIoTest : public ::testing::Test {
 protected:
  void write_file(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test case and per process: ctest runs each case as its
  // own concurrent process, so a shared fixed name would race.
  std::string path_ = ::testing::TempDir() + "/skyferry_throughput_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
                      std::to_string(::getpid()) + ".csv";
};

TEST_F(ThroughputIoTest, LoadsAndInterpolates) {
  write_file("d_m,median\n20,25\n40,19.4\n80,13.8\n");
  const auto model = load_throughput_csv(path_);
  ASSERT_TRUE(model.has_value());
  EXPECT_DOUBLE_EQ(model->throughput_bps(20.0), 25e6);
  EXPECT_NEAR(model->throughput_bps(30.0), 22.2e6, 1.0);
  EXPECT_EQ(model->name(), "measured");
}

TEST_F(ThroughputIoTest, AveragesDuplicateDistances) {
  write_file("d_m,median\n20,20\n20,30\n40,10\n");
  const auto model = load_throughput_csv(path_);
  ASSERT_TRUE(model.has_value());
  EXPECT_DOUBLE_EQ(model->throughput_bps(20.0), 25e6);
}

TEST_F(ThroughputIoTest, UnsortedRowsAreSorted) {
  write_file("d_m,median\n80,5\n20,25\n40,15\n");
  const auto model = load_throughput_csv(path_);
  ASSERT_TRUE(model.has_value());
  ASSERT_EQ(model->points().size(), 3u);
  EXPECT_DOUBLE_EQ(model->points()[0].first, 20.0);
  EXPECT_DOUBLE_EQ(model->points()[2].first, 80.0);
}

TEST_F(ThroughputIoTest, CustomColumnNames) {
  write_file("distance,rate,junk\n20,25,x\n40,19,y\n");
  const auto model = load_throughput_csv(path_, "distance", "rate");
  ASSERT_TRUE(model.has_value());
  EXPECT_DOUBLE_EQ(model->throughput_bps(40.0), 19e6);
}

TEST_F(ThroughputIoTest, MissingColumnFails) {
  write_file("a,b\n1,2\n3,4\n");
  EXPECT_FALSE(load_throughput_csv(path_).has_value());
}

TEST_F(ThroughputIoTest, TooFewRowsFails) {
  write_file("d_m,median\n20,25\n");
  EXPECT_FALSE(load_throughput_csv(path_).has_value());
}

TEST_F(ThroughputIoTest, MissingFileFails) {
  EXPECT_FALSE(load_throughput_csv("/no/such/file.csv").has_value());
}

TEST_F(ThroughputIoTest, SkipsNonNumericRows) {
  write_file("d_m,median\n20,25\nbad,row\n40,19\n");
  const auto model = load_throughput_csv(path_);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->points().size(), 2u);
}

TEST_F(ThroughputIoTest, LoadedModelDrivesThePlanner) {
  // End-to-end: measured medians in, decision out.
  write_file("d_m,median\n20,27.6\n40,17.1\n60,11\n80,6.6\n100,3.2\n");
  const auto model = load_throughput_csv(path_);
  ASSERT_TRUE(model.has_value());
  const Scenario scen = Scenario::quadrocopter();
  const uav::FailureModel failure(scen.rho_per_m);
  const CommDelayModel delay(*model, scen.delivery_params());
  const UtilityFunction u(delay, failure);
  const auto r = optimize(u);
  // Measured medians ~ the paper fit: the decision lands at the floor,
  // matching the paper-fit decision.
  EXPECT_NEAR(r.d_opt_m, 20.0, 1.0);
}

}  // namespace
}  // namespace skyferry::core
