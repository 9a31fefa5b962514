// io::json_number is built on std::to_chars; the snprintf/strtod loop it
// replaced is the oracle. Every probe must format to the same bytes.
#include <gtest/gtest.h>

#include <string>

#include "io/json.h"
#include "support/legacy_oracles.h"

namespace skyferry::io {
namespace {

TEST(JsonNumberOracle, ByteEqualToThePrintfLoop) {
  const std::vector<double> probes = legacy::json_number_probes(200'000, /*seed=*/11);
  ASSERT_GE(probes.size(), 200'000u);
  std::size_t mismatches = 0;
  std::string appended = "x";
  for (const double v : probes) {
    const std::string want = legacy::json_number(v);
    if (json_number(v) != want && ++mismatches <= 10)
      ADD_FAILURE() << std::hexfloat << v << ": want " << want << ", got " << json_number(v);
    appended.resize(1);
    append_json_number(appended, v);
    EXPECT_EQ(appended, "x" + want);
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace skyferry::io
