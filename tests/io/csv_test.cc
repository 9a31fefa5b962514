#include "io/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

namespace skyferry::io {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test case and per process: ctest runs each case as its
  // own concurrent process, so a shared fixed name would race.
  std::string path_ = ::testing::TempDir() + "/skyferry_csv_test_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
                      std::to_string(::getpid()) + ".csv";
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter w(path_);
    ASSERT_TRUE(w.ok());
    w.header({"d_m", "throughput_mbps"});
    w.row({20.0, 25.16});
    w.row({40.0, 19.4});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  const std::string content = read_file(path_);
  EXPECT_EQ(content, "d_m,throughput_mbps\n20,25.16\n40,19.4\n");
}

TEST_F(CsvTest, QuotesSpecialFields) {
  {
    CsvWriter w(path_);
    w.header({"label,with,commas", "plain"});
  }
  const std::string content = read_file(path_);
  EXPECT_EQ(content, "\"label,with,commas\",plain\n");
}

TEST_F(CsvTest, EscapesQuotes) {
  {
    CsvWriter w(path_);
    w.header({"say \"hi\"", "x"});
  }
  EXPECT_EQ(read_file(path_), "\"say \"\"hi\"\"\",x\n");
}

TEST_F(CsvTest, LabeledRow) {
  {
    CsvWriter w(path_);
    const std::vector<double> vals{1.0, 2.5};
    w.row("mcs3", vals);
  }
  EXPECT_EQ(read_file(path_), "mcs3,1,2.5\n");
}

TEST_F(CsvTest, SpanRow) {
  {
    CsvWriter w(path_);
    const std::vector<double> vals{1.0, 2.0, 3.0};
    w.row(vals);
  }
  EXPECT_EQ(read_file(path_), "1,2,3\n");
}

TEST(FormatNumber, Roundish) {
  EXPECT_EQ(format_number(1.0), "1");
  EXPECT_EQ(format_number(0.5), "0.5");
  EXPECT_EQ(format_number(1e6), "1e+06");
  EXPECT_EQ(format_number(123456.0), "123456");
}

}  // namespace
}  // namespace skyferry::io
