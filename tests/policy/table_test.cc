#include "policy/table.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <string>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace skyferry::policy {
namespace {

// A tiny handmade 2x2x2x2 table with distinguishable knot values so the
// interpolation arithmetic is checkable by hand.
PolicyTable tiny_table() {
  std::array<Axis, 4> axes = {Axis{"d0_m", 100.0, 300.0, 2, false},
                              Axis{"speed_mps", 5.0, 15.0, 2, false},
                              Axis{"mdata_bytes", 1e6, 1e8, 2, true},
                              Axis{"rho_per_m", 1e-4, 1e-2, 2, true}};
  std::vector<double> d_opt(16), utility(16);
  for (std::size_t k = 0; k < 16; ++k) {
    d_opt[k] = 20.0 + 10.0 * static_cast<double>(k);
    utility[k] = 0.01 * static_cast<double>(k + 1);
  }
  return PolicyTable(axes, TableModelSpec{-5.56, 49.0, 1e6, 20.0, "paper-airplane"}, 20.0,
                     core::OptimizeOptions{}, d_opt, utility);
}

TEST(Axis, KnotEndpointsAreExact) {
  const Axis lin{"d0_m", 40.0, 600.0, 29, false};
  EXPECT_EQ(lin.knot(0), 40.0);
  EXPECT_EQ(lin.knot(28), 600.0);
  const Axis log{"rho_per_m", 1e-6, 5e-3, 17, true};
  EXPECT_DOUBLE_EQ(log.knot(0), 1e-6);
  EXPECT_DOUBLE_EQ(log.knot(16), 5e-3);
  for (int i = 1; i < 17; ++i) EXPECT_GT(log.knot(i), log.knot(i - 1));
}

TEST(Axis, LocateClampsAndIsInverseOfKnot) {
  const Axis ax{"speed_mps", 1.0, 30.0, 13, false};
  int i;
  double f;
  ax.locate(ax.knot(5), &i, &f);
  EXPECT_EQ(i, 5);
  EXPECT_NEAR(f, 0.0, 1e-12);
  ax.locate(-10.0, &i, &f);  // below range clamps to the first cell
  EXPECT_EQ(i, 0);
  EXPECT_EQ(f, 0.0);
  ax.locate(1e9, &i, &f);  // above range clamps to the last cell's top
  EXPECT_EQ(i, 11);
  EXPECT_EQ(f, 1.0);
}

TEST(PolicyTable, KnotLookupsReproduceStoredValuesExactly) {
  const PolicyTable t = tiny_table();
  for (int i0 = 0; i0 < 2; ++i0)
    for (int i1 = 0; i1 < 2; ++i1)
      for (int i2 = 0; i2 < 2; ++i2)
        for (int i3 = 0; i3 < 2; ++i3) {
          const std::size_t flat = t.index(i0, i1, i2, i3);
          const double d =
              t.lookup_d_opt_candidates(t.axes()[0].knot(i0), t.axes()[1].knot(i1),
                                        t.axes()[2].knot(i2), t.axes()[3].knot(i3))
                  .blend;
          // Bit-exact: zero-weight corners are skipped in the blend.
          EXPECT_EQ(d, t.d_opt_at(flat)) << flat;
        }
}

TEST(PolicyTable, MidpointInterpolatesLinearly) {
  const PolicyTable t = tiny_table();
  // Halfway along the (linear) d0 axis only: average of the two knots.
  const double mid = t.lookup_d_opt_candidates(200.0, 5.0, 1e6, 1e-4).blend;
  const double lo = t.d_opt_at(t.index(0, 0, 0, 0));
  const double hi = t.d_opt_at(t.index(1, 0, 0, 0));
  EXPECT_DOUBLE_EQ(mid, 0.5 * (lo + hi));
}

TEST(PolicyTable, CoversIsClosedOnTheBoundary) {
  const PolicyTable t = tiny_table();
  EXPECT_TRUE(t.covers(100.0, 5.0, 1e6, 1e-4));
  EXPECT_TRUE(t.covers(300.0, 15.0, 1e8, 1e-2));
  EXPECT_FALSE(t.covers(99.9, 5.0, 1e6, 1e-4));
  EXPECT_FALSE(t.covers(100.0, 15.1, 1e6, 1e-4));
  EXPECT_FALSE(t.covers(100.0, 5.0, 2e8, 1e-4));
  EXPECT_FALSE(t.covers(100.0, 5.0, 1e6, 2e-2));
}

TEST(PolicyTable, ConstructorRejectsBadShapes) {
  std::array<Axis, 4> axes = {Axis{"d0_m", 100.0, 300.0, 2, false},
                              Axis{"speed_mps", 5.0, 15.0, 2, false},
                              Axis{"mdata_bytes", 1e6, 1e8, 2, true},
                              Axis{"rho_per_m", 1e-4, 1e-2, 2, true}};
  const TableModelSpec model{-5.56, 49.0, 1e6, 20.0, "m"};
  // Wrong knot count.
  EXPECT_THROW(PolicyTable(axes, model, 20.0, {}, std::vector<double>(15, 50.0),
                           std::vector<double>(16, 0.1)),
               TableError);
  // Non-finite knot.
  std::vector<double> bad(16, 50.0);
  bad[7] = std::nan("");
  EXPECT_THROW(PolicyTable(axes, model, 20.0, {}, bad, std::vector<double>(16, 0.1)),
               TableError);
  // Wrong axis name (order is part of the format).
  auto renamed = axes;
  renamed[1].name = "velocity";
  EXPECT_THROW(PolicyTable(renamed, model, 20.0, {}, std::vector<double>(16, 50.0),
                           std::vector<double>(16, 0.1)),
               TableError);
  // Degenerate axis.
  auto degenerate = axes;
  degenerate[0].hi = degenerate[0].lo;
  EXPECT_THROW(PolicyTable(degenerate, model, 20.0, {}, std::vector<double>(16, 50.0),
                           std::vector<double>(16, 0.1)),
               TableError);
}

class TableFileTest : public ::testing::Test {
 protected:
  // Unique per test case AND per process: ctest runs each case as its
  // own concurrent process, so a shared fixed name would race.
  std::string path_ = ::testing::TempDir() + "/skyferry_policy_table_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
                      std::to_string(::getpid()) + ".json";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TableFileTest, SaveLoadRoundTripsBitIdentically) {
  const PolicyTable t = tiny_table();
  t.save_atomic(path_);
  const PolicyTable back = PolicyTable::load(path_);
  ASSERT_EQ(back.knots(), t.knots());
  for (std::size_t k = 0; k < t.knots(); ++k) {
    EXPECT_EQ(back.d_opt_at(k), t.d_opt_at(k)) << k;
    EXPECT_EQ(back.utility_at(k), t.utility_at(k)) << k;
  }
  for (int a = 0; a < 4; ++a) {
    EXPECT_EQ(back.axes()[a].name, t.axes()[a].name);
    EXPECT_EQ(back.axes()[a].lo, t.axes()[a].lo);
    EXPECT_EQ(back.axes()[a].hi, t.axes()[a].hi);
    EXPECT_EQ(back.axes()[a].n, t.axes()[a].n);
    EXPECT_EQ(back.axes()[a].log10_spaced, t.axes()[a].log10_spaced);
  }
  EXPECT_EQ(back.model().a, t.model().a);
  EXPECT_EQ(back.model().b, t.model().b);
  EXPECT_EQ(back.min_distance_m(), t.min_distance_m());
  EXPECT_EQ(back.checksum(), t.checksum());
}

TEST_F(TableFileTest, TruncatedFileIsRejected) {
  tiny_table().save_atomic(path_);
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  const std::string text = buf.str();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << text.substr(0, text.size() / 2);
  out.close();
  EXPECT_THROW(PolicyTable::load(path_), TableError);
}

TEST_F(TableFileTest, TamperedKnotFailsTheChecksum) {
  tiny_table().save_atomic(path_);
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  auto j = io::Json::parse(buf.str());
  ASSERT_TRUE(j.has_value());
  // Flip one d_opt knot; leave the recorded checksum alone.
  io::Json tampered = io::Json::object();
  for (const auto& [key, value] : j->members()) {
    if (key == "d_opt") {
      io::Json arr = io::Json::array();
      for (std::size_t i = 0; i < value.items().size(); ++i)
        arr.push_back(i == 0 ? io::Json(999.0) : value.items()[i]);
      tampered.set(key, std::move(arr));
    } else {
      tampered.set(key, value);
    }
  }
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << tampered.dump(1);
  out.close();
  try {
    (void)PolicyTable::load(path_);
    FAIL() << "tampered table loaded";
  } catch (const TableError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST_F(TableFileTest, VersionMismatchIsRejected) {
  tiny_table().save_atomic(path_);
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  auto j = io::Json::parse(buf.str());
  ASSERT_TRUE(j.has_value());
  io::Json bumped = *j;
  bumped.set("skyferry_policy_table", PolicyTable::kFormatVersion + 1);
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out << bumped.dump(1);
  out.close();
  try {
    (void)PolicyTable::load(path_);
    FAIL() << "future-version table loaded";
  } catch (const TableError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST_F(TableFileTest, MissingFieldAndUnknownModelKindAreRejected) {
  tiny_table().save_atomic(path_);
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  auto j = io::Json::parse(buf.str());
  ASSERT_TRUE(j.has_value());

  io::Json no_axes = io::Json::object();
  for (const auto& [key, value] : j->members())
    if (key != "axes") no_axes.set(key, value);
  EXPECT_THROW((void)PolicyTable::from_json(no_axes), TableError);

  io::Json alien = *j;
  io::Json model = *j->find("model");
  model.set("kind", "neural-net");
  alien.set("model", std::move(model));
  EXPECT_THROW((void)PolicyTable::from_json(alien), TableError);
}

TEST_F(TableFileTest, LoadOfMissingPathThrows) {
  EXPECT_THROW(PolicyTable::load(::testing::TempDir() + "/no_such_table.json"), TableError);
}

}  // namespace
}  // namespace skyferry::policy
