// Self-tests of the benchmark's own machinery: the percentile helper,
// span self-time arithmetic, the setup guard, every output check firing
// on a deliberately corrupted result, and the copies' thread fan-out.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "fleet/engine.h"
#include "policy/compiler.h"
#include "policy/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace skyferry;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_percentiles() {
  expect(near(percentile({5, 1, 4, 2, 3}, 0.5), 3.0), "median of 1..5");
  expect(near(percentile({0, 10}, 0.3), 3.0), "linear interpolation");
  expect(near(percentile({7}, 0.99), 7.0), "single sample");
  const auto tail = [](std::size_t n) { return highest_tail(std::vector<double>(n, 1.0)); };
  expect(tail(19).pct == 0.0, "19 samples: no percentile has 10 beyond p50");
  expect(tail(20).pct == 50.0, "20 samples: p50");
  expect(tail(999).pct == 90.0, "999 samples: p90, not p99");
  expect(tail(1000).pct == 99.0 && tail(1000).samples == 1000, "1000 samples: p99");
  expect(tail(9999).pct == 99.0, "9999 samples: p99, not p99.9");
  expect(tail(10000).pct == 99.9, "10000 samples: p99.9");
  expect(samples_beyond(1000, 99.0) == 10, "10 of 1000 samples beyond p99");
}

void test_self_time() {
  std::vector<Span> s(5);
  s[0] = {"parent", 0.0, 10.0, -1, 1};
  s[1] = {"a", 1.0, 3.0, 0, 1};
  s[2] = {"b", 2.0, 5.0, 0, 1};    // overlaps a: union [1, 5]
  s[3] = {"c", 8.0, 12.0, 0, 1};   // clipped to the parent: [8, 10]
  s[4] = {"a.x", 1.5, 2.0, 1, 1};  // grandchild: counts against a only
  const std::vector<double> self = self_times(s);
  expect(near(self[0], 4.0), "parent self = 10 - |[1,5] u [8,10]|");
  expect(near(self[1], 1.5), "child self excludes its own child");
  expect(near(self[2], 3.0) && near(self[4], 0.5), "leaf self = duration");

  Tracer t(true);
  const int outer = t.open("outer", 7);
  const int inner = t.open("inner", 7);
  t.close(inner);
  t.close(outer);
  expect(t.spans()[1].parent == outer && t.spans()[0].parent == -1, "nesting records parents");
  expect(t.durations("inner").size() == 1, "durations by name");
  Tracer off(false);
  expect(off.open("x", 0) == -1 && off.spans().empty(), "a disabled tracer records nothing");
}

policy::CompilerConfig tiny_table(policy::TableModelSpec model) {
  policy::CompilerConfig c;
  c.model = model;
  c.d0 = {40.0, 300.0, 3};
  c.speed = {1.0, 10.0, 2};
  c.mdata = {1e6, 1e8, 2, true};
  c.rho = {1e-5, 1e-3, 2, true};
  c.threads = 1;
  return c;
}

bool guard_rejects(const policy::PolicyTable& t, const core::PaperLogThroughput& fit) {
  try {
    guard_table_model(t, fit);
  } catch (const SetupError&) {
    return true;
  }
  return false;
}

void test_setup_guard() {
  const policy::TableModelSpec airplane{-5.56, 49.0, 1e6, 20.0, "paper-airplane"};
  const policy::TableModelSpec quad{-10.5, 73.0, 1e6, 20.0, "paper-quadrocopter"};
  const policy::PolicyTable a = policy::Compiler(tiny_table(airplane)).compile();
  const policy::PolicyTable q = policy::Compiler(tiny_table(quad)).compile();
  const core::PaperLogThroughput quad_fit = core::Scenario::quadrocopter().paper_throughput();
  expect(guard_rejects(a, quad_fit), "guard rejects an airplane table in a quadrocopter fleet");
  expect(!guard_rejects(q, quad_fit), "guard accepts the matching table");
  expect(!guard_rejects(a, core::PaperLogThroughput::airplane()), "guard accepts airplane/airplane");
  policy::TableModelSpec scaled = quad;
  scaled.scale = 2e6;
  expect(guard_rejects(policy::Compiler(tiny_table(scaled)).compile(), quad_fit),
         "guard rejects a different scale");
  policy::TableModelSpec floor = quad;
  floor.min_distance_m = 10.0;
  expect(guard_rejects(policy::Compiler(tiny_table(floor)).compile(), quad_fit),
         "guard rejects a different distance floor");
}

void test_fleet_checks() {
  fleet::FleetConfig cfg;
  fleet::FleetEngine eng(cfg, 11);
  std::vector<fleet::MissionSpec> specs;
  for (int i = 0; i < 12; ++i) {
    fleet::MissionSpec m;
    m.receiver_pos = {0.0, 500.0 * (i / 6), 10.0};
    m.start_pos = m.receiver_pos + geo::Vec3{150.0 + 20.0 * (i % 6), 0.0, 0.0};
    m.mdata_bytes = 2e6;
    m.rho_per_m = 1e-3;
    m.spawn_t_s = 0.3 * i;
    m.deadline_s = m.spawn_t_s + 60.0;
    specs.push_back(m);
    eng.add_mission(m);
  }
  eng.run_until(120.0);
  std::vector<fleet::MissionStatus> st;
  for (int i = 0; i < 12; ++i) st.push_back(eng.mission(i));
  const fleet::FleetTotals tot = eng.totals();
  FleetCheckSpec spec;
  CheckLog clean;
  expect(check_fleet(specs, st, tot, spec, clean) == 0, "fleet checks pass a real result");
  expect(tot.completed > 0, "fixture completes missions");

  // Corrupt the last completed mission (spawned after t = 0).
  std::size_t done = st.size() - 1;
  while (st[done].phase != fleet::Phase::kDone) --done;
  const auto fires = [&](const char* what, const std::function<void(fleet::MissionStatus&)>& bad,
                         FleetCheckSpec s = {}, std::vector<fleet::MissionStatus> c = {}) {
    if (c.empty()) c = st;
    bad(c[done]);
    CheckLog log;
    expect(check_fleet(specs, c, tot, s, log) == 1 && log.failed == 1, what);
  };
  fires("fires: delivered > total", [](auto& m) { m.bytes_delivered = m.bytes_total + 1; });
  fires("fires: by-deadline > delivered", [](auto& m) { m.bytes_by_deadline = m.bytes_delivered + 1; });
  fires("fires: done but partial", [](auto& m) { m.bytes_delivered = m.bytes_by_deadline = 1; });
  fires("fires: d* below the floor", [](auto& m) { m.d_star_m = 5.0; });
  fires("fires: d* beyond d0", [](auto& m) { m.d_star_m = 1e4; });
  fires("fires: arrived before spawn", [](auto& m) { m.arrived_t_s = m.spawn_t_s - 1.0; });
  fires("fires: completed before arrival", [](auto& m) { m.completed_t_s = m.arrived_t_s - 1.0; });
  fires("fires: legacy mission with a burst link", [](auto& m) { m.burst_link = 0; });
  FleetCheckSpec ml;
  ml.n_links = 4;
  ml.max_reelections = 2;
  std::vector<fleet::MissionStatus> linked = st;
  for (auto& m : linked) m.burst_link = 3;
  CheckLog ok;
  expect(check_fleet(specs, linked, tot, ml, ok) == 0, "burst_link 3 of 4 is in range");
  for (auto& m : linked) m.burst_link = 4;
  CheckLog bad_link;
  expect(check_fleet(specs, linked, tot, ml, bad_link) == 12, "fires: burst_link == n_links");
  FleetCheckSpec cap;
  cap.max_reelections = 2;
  fires("fires: reelections above the cap", [](auto& m) { m.reelections = 3; }, cap);
  FleetCheckSpec table;
  table.expect_table = true;
  std::vector<fleet::MissionStatus> tabled = st;
  for (auto& m : tabled) m.backend = policy::Backend::kTable;
  fires("fires: exact decision in a table fleet", [](auto& m) { m.backend = policy::Backend::kExact; },
        table, tabled);
  fleet::FleetTotals skew = tot;
  ++skew.completed;
  CheckLog log;
  expect(check_fleet(specs, st, skew, spec, log) == 12, "fires: phase totals off by one");
}

void test_mc_checks() {
  fault::MonteCarloConfig cfg;
  cfg.spec.with_scenario(core::Scenario::quadrocopter())
      .with_faults(fault::FaultPlan::crashes_only(2.46e-4));
  cfg.with_trials(200).with_seed(3).with_threads(1);
  const fault::MonteCarloSummary s = fault::run_monte_carlo(cfg);
  CheckLog clean;
  expect(check_mc(s, clean) == 0, "mc checks pass a real summary");
  fault::MonteCarloSummary q = s;
  q.quarantined = 2;
  q.completed_trials -= 2;
  CheckLog lq;
  expect(check_mc(q, lq) == 2, "fires: quarantined trials");
  fault::MonteCarloSummary v = s;
  v.empirical_approach_survival = v.analytic_approach_survival - 0.3;
  CheckLog lv;
  expect(check_mc(v, lv) == 200, "fires: survival outside the band");
}

void test_reply_checks() {
  const core::PaperLogThroughput model = core::PaperLogThroughput::airplane();
  const policy::DecisionService service(model);
  policy::ServerOptions so;
  so.banner = false;
  const policy::LineServer server(service, so);
  std::istringstream in("begin\n200 10 2e7 1e-4\n300 5 5e6 2e-4\n100 20 1e8 1e-5\nend\n");
  std::ostringstream out;
  server.run(in, out);
  const std::string good = out.str();
  std::string expected;
  for (const policy::Query& q : {policy::Query{200, 10, 2e7, 20, 1e-4},
                                 policy::Query{300, 5, 5e6, 20, 2e-4},
                                 policy::Query{100, 20, 1e8, 20, 1e-5}})
    expected += policy::format_decision(service.decide_one(q)) + '\n';
  CheckLog clean;
  expect(check_replies(good, expected, 3, clean) == 0, "reply check passes the server's replies");
  const auto fires = [&](const char* what, std::string reply, std::uint64_t n) {
    CheckLog log;
    expect(check_replies(reply, expected, 3, log) == n, what);
  };
  std::string flipped = good;
  flipped[good.find(' ') + 1] ^= 1;  // one digit of the first d*
  fires("fires: a changed answer", flipped, 1);
  fires("fires: a missing reply", good.substr(0, good.rfind('\n', good.size() - 2) + 1), 1);
  fires("fires: an err reply", "err boom\n" + good.substr(good.find('\n') + 1), 1);
  const std::size_t second = good.find('\n') + 1;
  const std::string swapped = good.substr(second, good.find('\n', second) + 1 - second) +
                              good.substr(0, second) +
                              good.substr(good.find('\n', second) + 1);
  fires("fires: replies out of order", swapped, 2);
  fires("fires: an extra line", good + "ok 1 2 3 4 interior table\n", 3);
}

void test_digest_check() {
  RunResult r;
  expect_digest(r, "aa", 5, "pass");
  expect_digest(r, "aa", 5, "pass");
  expect(r.checks.failed == 0, "equal digests pass");
  expect_digest(r, "ab", 5, "traced pass");
  expect(r.checks.failed == 5, "fires: a pass whose digest differs");
}

void test_copies() {
  const std::vector<int> cpus = copy_cpus();
  expect(!cpus.empty() && cpus.size() <= kMaxCopies, "one to kMaxCopies copies");
  std::vector<std::atomic<int>> calls(cpus.size());
  on_cpus(cpus, [&](std::size_t i) { ++calls[i]; });
  bool once = true;
  for (const std::atomic<int>& c : calls) once = once && c.load() == 1;
  expect(once, "on_cpus calls every copy exactly once");
  bool rethrown = false;
  try {
    on_cpus(cpus, [&](std::size_t i) {
      if (i + 1 == cpus.size()) throw std::runtime_error("copy failed");
    });
  } catch (const std::runtime_error&) {
    rethrown = true;
  }
  expect(rethrown, "a copy's exception reaches the caller");

  CheckLog a, b;
  a.fail(3, "a");
  for (int i = 0; i < 10; ++i) b.fail(2, "b");
  a.absorb(b);
  expect(a.failed == 23 && a.messages.size() == 8, "absorb adds failures, keeps 8 messages");
}

}  // namespace

int run_selftest() {
  g_failures = 0;
  test_percentiles();
  test_self_time();
  test_setup_guard();
  test_fleet_checks();
  test_mc_checks();
  test_reply_checks();
  test_digest_check();
  test_copies();
  return g_failures;
}

}  // namespace perfbench
