// fleet_wifi and fleet_multilink_chaos: a seeded open-loop mission
// schedule (Poisson arrivals in simulated time) run to a fixed horizon
// on fleet::FleetEngine. One operation is one mission.
#include <algorithm>
#include <cmath>
#include <memory>

#include "fleet/engine.h"
#include "link/multilink.h"
#include "policy/compiler.h"
#include "sim/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace skyferry;

struct Shape {
  bool multilink{false};
  int missions{0};
  double arrivals_per_s{0.0};
  double mdata_bytes{0.0};
  double deadline_s{0.0};  ///< per mission, counted from its spawn
};

// Sized so one pass takes about a second of wall time.
constexpr Shape kWifi{false, 5000, 50.0, 8.0e6, 90.0};
constexpr Shape kChaos{true, 2000, 10.0, 5.0e7, 120.0};

// Every copy runs the engine on one thread (see kMaxCopies); traced
// fleet_wifi runs add passes at two threads for the thread speed-up.
constexpr int kSpeedupThreads = 2;

// Six missions share each receiver on a 500 m grid, so a cell holds
// more would-be transmitters than max_tx_per_cell admits.
constexpr int kPerReceiver = 6;
constexpr double kGridM = 500.0;

struct Inputs {
  std::vector<fleet::MissionSpec> missions;  ///< in spawn order
  double horizon_s{0.0};
};

Inputs make_inputs(const Shape& sh, std::uint64_t seed) {
  sim::Rng rng(sim::derive_seed(seed, "perfbench/fleet"));
  const int receivers = (sh.missions + kPerReceiver - 1) / kPerReceiver;
  const int width = 1 + static_cast<int>(std::sqrt(static_cast<double>(receivers)));
  Inputs in;
  double t = 0.0;
  for (int i = 0; i < sh.missions; ++i) {
    t += rng.exponential(sh.arrivals_per_s);
    const int g = i / kPerReceiver;
    fleet::MissionSpec s;
    s.receiver_pos = {kGridM * (g % width), kGridM * (g / width), 10.0};
    s.start_pos = s.receiver_pos + geo::Vec3{rng.uniform(150.0, 275.0), 0.0, 0.0};
    s.mdata_bytes = sh.mdata_bytes;
    s.rho_per_m = 1.0e-4;
    s.spawn_t_s = t;
    s.deadline_s = t + sh.deadline_s;
    in.missions.push_back(s);
  }
  in.horizon_s = t + sh.deadline_s;
  return in;
}

// The `combined` row of bench/ablation_link_chaos: blackouts, degradation
// epochs and flaky setup on the 802.11n link, plus regional storms.
fault::LinkFaultPlan combined_chaos(std::uint64_t seed) {
  fault::LinkFaultPlan p;
  p.links.resize(1);
  p.links[0].blackout_rate_per_hour = 40.0;
  p.links[0].blackout_mean_s = 25.0;
  p.links[0].degrade_rate_per_hour = 30.0;
  p.links[0].degrade_mean_s = 45.0;
  p.links[0].degrade_rate_scale = 0.2;
  p.links[0].setup_fail_p = 0.3;
  p.storm = {10.0, 30.0, 0.4};
  p.seed = sim::derive_seed(seed, "perfbench/chaos");
  return p;
}

// The quadrocopter fit over a fleet-sized domain (4275 knots): covers
// every fleet_wifi spawn query, so all decisions are table lookups.
policy::CompilerConfig quadrocopter_table_config() {
  policy::CompilerConfig c;
  c.model = {-10.5, 73.0, 1e6, 20.0, "paper-quadrocopter"};
  c.min_distance_m = 20.0;
  c.d0 = {40.0, 400.0, 19};
  c.speed = {1.0, 10.0, 5};
  c.mdata = {1e6, 1e8, 9, true};
  c.rho = {1e-5, 1e-3, 5, true};
  c.threads = 2;
  return c;
}

// Program set-up: configuration (LinkSet build), engine construction
// (PER-table prefetch), the whole schedule, and the policy table.
std::unique_ptr<fleet::FleetEngine> build(const Shape& sh, const Inputs& in, int threads,
                                          std::uint64_t seed, Tracer& tr, std::uint64_t pass) {
  fleet::FleetConfig cfg;
  cfg.threads = threads;
  if (sh.multilink) {
    cfg.links = std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
        link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
        link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()});
    cfg.link_chaos = combined_chaos(seed);
    cfg.reelection.enabled = true;
  }
  auto eng = std::make_unique<fleet::FleetEngine>(cfg, seed);
  for (const fleet::MissionSpec& m : in.missions) eng->add_mission(m);
  if (!sh.multilink) {
    const int id = tr.open("policy.compile", pass);
    policy::PolicyTable table = policy::Compiler(quadrocopter_table_config()).compile();
    tr.close(id);
    guard_table_model(table, cfg.scenario.paper_throughput());
    eng->install_policy_table(std::move(table));
  }
  return eng;
}

// The queries the engine builds at spawn (engine.cc decide_pending).
std::vector<policy::Query> spawn_queries(const Inputs& in, const fleet::FleetConfig& cfg) {
  std::vector<policy::Query> qs;
  for (const fleet::MissionSpec& m : in.missions) {
    policy::Query q;
    q.d0_m = geo::distance(m.start_pos, m.receiver_pos);
    q.speed_mps = m.speed_mps > 0.0 ? m.speed_mps : cfg.scenario.speed_mps;
    q.mdata_bytes = static_cast<double>(static_cast<std::uint64_t>(m.mdata_bytes));
    q.min_distance_m = cfg.scenario.min_distance_m;
    q.rho_per_m = m.rho_per_m;
    qs.push_back(q);
  }
  return qs;
}

// Per-sweep observations of the traced passes.
struct StepLog {
  std::vector<double> step_s;
  std::vector<double> spawn_step_s, quiet_step_s;
  double active_uav_steps{0.0};
};

// Drives the engine exactly as run_until(horizon) does, one span per
// FleetEngine::step().
void run_traced(fleet::FleetEngine& eng, const Inputs& in, Tracer& tr, std::uint64_t pass,
                StepLog& log) {
  const double dt = eng.config().dt_s;
  std::size_t spawned = 0;
  std::size_t finished = 0;  // done + failed after the previous sweep
  while (eng.now() + dt <= in.horizon_s + 1e-12) {
    const double t0 = eng.now();
    bool spawn_window = false;
    // The sweep at t0 first runs the simulator to t0, which fires every
    // spawn event at or before t0.
    while (spawned < in.missions.size() && in.missions[spawned].spawn_t_s <= t0) {
      ++spawned;
      spawn_window = true;
    }
    const int id = tr.open("fleet.step", pass);
    eng.step();
    tr.close(id);
    const double s = tr.spans()[static_cast<std::size_t>(id)].duration_s();
    log.step_s.push_back(s);
    (spawn_window ? log.spawn_step_s : log.quiet_step_s).push_back(s);
    log.active_uav_steps += static_cast<double>(spawned - std::min(spawned, finished));
    const fleet::FleetTotals t = eng.totals();
    finished = t.completed + t.failed;
  }
  eng.simulator().run_until(eng.now());
}

struct Outputs {
  std::vector<fleet::MissionStatus> status;
  fleet::FleetTotals totals;
};

Outputs collect(const fleet::FleetEngine& eng) {
  Outputs o;
  o.status.reserve(eng.mission_count());
  for (std::size_t i = 0; i < eng.mission_count(); ++i)
    o.status.push_back(eng.mission(static_cast<int>(i)));
  o.totals = eng.totals();
  return o;
}

RunResult run_fleet(const Shape& sh, const Options& opt) {
  RunResult r;
  r.threads = 1;
  const Inputs in = make_inputs(sh, opt.seed);
  const auto n = static_cast<std::uint64_t>(in.missions.size());
  FleetCheckSpec check;
  check.d_min_m = fleet::FleetConfig{}.scenario.min_distance_m;
  check.max_reelections = sh.multilink ? fleet::ReElectionConfig{}.max_reelections : 0;
  check.n_links = sh.multilink ? 4 : 0;
  check.expect_table = !sh.multilink;

  Tracer tracer(opt.trace);
  StepLog steps;
  std::vector<double> two_thread_s, decide_ns, multilink_us;
  double table_hits = 0.0, exact_calls = 0.0, sim_events = 0.0, reelections = 0.0,
         stalled = 0.0, delivered_frac = 0.0;

  // Checks a finished pass's outputs and folds in its digest.
  auto finish = [&](const fleet::FleetEngine& eng, const char* what) {
    const Outputs out = collect(eng);
    r.ops += n;
    check_fleet(in.missions, out.status, out.totals, check, r.checks);
    expect_digest(r, digest_fleet(out.status, out.totals), n, what);
    delivered_frac = out.totals.deadline_weighted_utility / static_cast<double>(n);
    return out;
  };

  // Traced runs alternate kinds on this thread: 0 untraced, 1 traced, 2
  // untraced at two threads (fleet_wifi only: thread speed-up and
  // bit-identity).
  const int kinds = sh.multilink ? 2 : 3;
  auto one_pass = [&](int kind, std::uint64_t round) {
    const int threads = kind == 2 ? kSpeedupThreads : 1;
    const double s0 = now_s();
    const std::unique_ptr<fleet::FleetEngine> owned =
        build(sh, in, threads, opt.seed, tracer, round);
    const double setup = now_s() - s0;
    if (kind != 2) r.setup_s.push_back(setup);
    fleet::FleetEngine& eng = *owned;

    double wall = 0.0;
    if (kind == 1) {
      const int id = tracer.open("fleet.pass", round);
      run_traced(eng, in, tracer, round, steps);
      tracer.close(id);
      wall = tracer.spans()[static_cast<std::size_t>(id)].duration_s();
    } else {
      const double t0 = now_s();
      eng.run_until(in.horizon_s);
      wall = now_s() - t0;
    }

    const Outputs out =
        finish(eng, kind == 1 ? "traced pass" : (kind == 2 ? "two-thread pass" : "pass"));
    if (kind == 0) r.untraced_rates.push_back(static_cast<double>(n) / wall);
    if (kind == 1) r.traced_rates.push_back(static_cast<double>(n) / wall);
    if (kind == 2) two_thread_s.push_back(wall);

    if (kind == 1) {
      const policy::DecisionService::Counters c = eng.service().counters();
      table_hits = static_cast<double>(c.table);
      exact_calls = static_cast<double>(c.exact);
      sim_events = static_cast<double>(eng.simulator().events_executed());
      reelections = static_cast<double>(out.totals.reelections);
      stalled = static_cast<double>(out.totals.stalled_by_link);
      // Replay the pass's own spawn queries through the service.
      std::vector<policy::Query> qs = spawn_queries(in, eng.config());
      if (sh.multilink) {
        // decide_multilink is exact (~0.3 ms); a strided sample suffices.
        std::vector<policy::Query> sample;
        for (std::size_t i = 0; i < qs.size(); i += 20) sample.push_back(qs[i]);
        std::vector<policy::MultiLinkDecision> ans(sample.size());
        const int id = tracer.open("policy.decide_multilink", round);
        eng.service().decide_multilink(sample, ans);
        tracer.close(id);
        multilink_us.push_back(tracer.spans()[static_cast<std::size_t>(id)].duration_s() * 1e6 /
                               static_cast<double>(sample.size()));
      } else {
        std::vector<policy::Decision> ans(qs.size());
        const int id = tracer.open("policy.decide", round);
        eng.service().decide(qs, ans);
        tracer.close(id);
        decide_ns.push_back(tracer.spans()[static_cast<std::size_t>(id)].duration_s() * 1e9 /
                            static_cast<double>(qs.size()));
      }
    }
    return wall;
  };

  if (!opt.trace) {
    r.copies = copy_rounds(
        opt.seconds,
        [&](std::uint64_t round) {
          const double s0 = now_s();
          std::unique_ptr<fleet::FleetEngine> eng = build(sh, in, 1, opt.seed, tracer, round);
          r.setup_s.push_back(now_s() - s0);
          return eng;
        },
        [&](const std::unique_ptr<fleet::FleetEngine>& eng, std::uint64_t) {
          const double t0 = now_s();
          eng->run_until(in.horizon_s);
          return now_s() - t0;
        },
        [&](const std::unique_ptr<fleet::FleetEngine>& eng, double wall) {
          finish(*eng, "pass");
          r.untraced_rates.push_back(static_cast<double>(n) / wall);
        });
  } else {
    pass_loop(opt.seconds, kinds, one_pass);
  }

  r.extra.push_back({"delivered_frac", delivered_frac, "1"});
  if (!opt.trace) return r;

  // The fastest one-thread pass over the fastest two-thread pass, as
  // ops_per_s takes the fastest pass.
  const double thread_speedup =
      two_thread_s.empty() || r.untraced_rates.empty()
          ? 0.0
          : static_cast<double>(n) / best_rate(r.untraced_rates) /
                *std::min_element(two_thread_s.begin(), two_thread_s.end());
  const TailPercentile tail = highest_tail(steps.step_s);
  double step_total = 0.0;
  for (const double s : steps.step_s) step_total += s;
  r.layer = {
      {"fleet.step_p50_us", median(steps.step_s) * 1e6, "us"},
      {"fleet.step_p99_us", tail.pct >= 99.0 ? percentile(steps.step_s, 0.99) * 1e6 : 0.0, "us"},
      {"fleet.ns_per_active_uav_step",
       steps.active_uav_steps > 0.0 ? step_total * 1e9 / steps.active_uav_steps : 0.0, "ns"},
      {"fleet.spawn_step_us", mean(steps.spawn_step_s) * 1e6, "us"},
      {"fleet.quiet_step_us", mean(steps.quiet_step_s) * 1e6, "us"},
      {"fleet.active_uav_steps", steps.active_uav_steps, "count"},
      {"fleet.sim_events", sim_events, "count"},
      {"fleet.reelections", reelections, "count"},
      {"fleet.stalled_by_link", stalled, "count"},
      {"fleet.thread_speedup", thread_speedup, "x"},
      {"policy.compile_s", median(tracer.durations("policy.compile")), "s"},
      {"policy.decide_ns", median(decide_ns), "ns"},
      {"policy.decide_multilink_us", median(multilink_us), "us"},
      {"policy.table_hit_frac",
       table_hits + exact_calls > 0.0 ? table_hits / (table_hits + exact_calls) : 0.0, "1"},
      {"policy.exact_calls", exact_calls, "count"},
  };
  r.extra.push_back({"fleet.step_samples", static_cast<double>(tail.samples), "count"});
  if (!opt.trace_out.empty()) tracer.write_jsonl(opt.trace_out);
  return r;
}

}  // namespace

RunResult run_fleet_wifi(const Options& opt) { return run_fleet(kWifi, opt); }
RunResult run_fleet_multilink_chaos(const Options& opt) { return run_fleet(kChaos, opt); }

}  // namespace perfbench
