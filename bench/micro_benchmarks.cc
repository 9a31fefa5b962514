// Google-benchmark micro-benchmarks for the hot paths: the utility
// optimizer (runs on every rendezvous decision) and the table compile
// built on it, the decision service
// and its line protocol, the PER math (runs per
// simulated A-MPDU), its PerTable fast path, binomial aggregate
// sampling, the event queue, geodesy, full link-sim seconds at both
// fidelities, one selective-repeat ARQ batch transfer, one
// Monte-Carlo mission trial, and fleet sweeps (idle, and mixed-phase
// wifi and multi-link chaos fleets).
//
// The benchmarks named in BENCH_link_sim.json are the regression gate:
// scripts/bench_regress.sh runs this binary with --benchmark_format=json
// and fails on >25% regression of any baselined counter.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "core/redecide.h"
#include "core/scenario.h"
#include "core/strategy.h"
#include "fault/mission_sim.h"
#include "fleet/engine.h"
#include "geo/geodesy.h"
#include "io/json.h"
#include "link/multilink.h"
#include "mac/link.h"
#include "net/arq.h"
#include "phy/per_table.h"
#include "policy/compiler.h"
#include "policy/server.h"
#include "policy/service.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

using namespace skyferry;

void BM_OptimizeUtility(benchmark::State& state) {
  const auto scen = core::Scenario::airplane();
  const auto model = scen.paper_throughput();
  const uav::FailureModel failure(scen.rho_per_m);
  const core::CommDelayModel delay(model, scen.delivery_params());
  const core::UtilityFunction u(delay, failure);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize(u));
  }
}
BENCHMARK(BM_OptimizeUtility);

void BM_OptimizeBruteForce(benchmark::State& state) {
  const auto scen = core::Scenario::airplane();
  const auto model = scen.paper_throughput();
  const uav::FailureModel failure(scen.rho_per_m);
  const core::CommDelayModel delay(model, scen.delivery_params());
  const core::UtilityFunction u(delay, failure);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_brute_force(u, 20000));
  }
}
BENCHMARK(BM_OptimizeBruteForce);

// perfbench decide_stream's table: the airplane fit over the compiler's
// default domain on a 15 x 7 x 13 x 9 grid (12285 knots).
policy::CompilerConfig decide_stream_table_config() {
  policy::CompilerConfig c;
  c.d0.n = 15;
  c.speed.n = 7;
  c.mdata.n = 13;
  c.rho.n = 9;
  return c;
}

// One compile of that table on one thread: 12285 exact solves, the
// whole of decide_stream's set-up. Most knots prune their grid stage.
void BM_PolicyCompile(benchmark::State& state) {
  policy::CompilerConfig c = decide_stream_table_config();
  c.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::Compiler(c).compile());
  }
}
BENCHMARK(BM_PolicyCompile)->Unit(benchmark::kMillisecond);

// One exact fallback solve: decide_stream's queries that approach from
// beyond the table's d0 range (601-900 m, the rest of the domain
// log-uniform), seeded, cycled. grid_evaluated is the mean number of
// the 256 grid points the pruned grid stage evaluated.
void BM_OptimizeFallback(benchmark::State& state) {
  const policy::CompilerConfig dom = decide_stream_table_config();
  const auto model = core::PaperLogThroughput::airplane();
  const auto log_uniform = [](sim::Rng& rng, double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  sim::Rng rng(19);
  std::vector<core::DeliveryParams> params(256);
  std::vector<uav::FailureModel> failures;
  for (core::DeliveryParams& p : params) {
    p = {rng.uniform(dom.d0.hi + 1.0, 1.5 * dom.d0.hi), rng.uniform(dom.speed.lo, dom.speed.hi),
         log_uniform(rng, dom.mdata.lo, dom.mdata.hi), dom.min_distance_m};
    failures.emplace_back(log_uniform(rng, dom.rho.lo, dom.rho.hi));
  }
  std::size_t q = 0;
  double grid = 0.0;
  for (auto _ : state) {
    const std::size_t k = q++ & 255;
    const core::CommDelayModel delay(model, params[k]);
    const core::UtilityFunction u(delay, failures[k]);
    const core::OptimizeResult r = core::optimize(u);
    grid += r.grid_evaluated;
    benchmark::DoNotOptimize(r);
  }
  state.counters["grid_evaluated"] = benchmark::Counter(grid, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_OptimizeFallback);

// One full mid-flight re-decision: trigger ladder + re-estimated model +
// re-optimization at the reduced in-flight grid. This runs inside a
// probe tick of a live mission, so bench_regress.sh pins it under an
// absolute 10 us ceiling on top of the relative regression gate.
void BM_ReDecision(benchmark::State& state) {
  const auto scen = core::Scenario::quadrocopter();
  const auto model = scen.paper_throughput();
  ctrl::ChannelEstimate est;
  est.a = model.a() * 0.6;
  est.b = model.b() * 0.6;
  est.gain = 0.6;
  est.r_squared = 0.98;
  est.samples = 32;
  est.confidence = 0.7;
  core::ReDecisionInput in;
  in.current_d_m = 90.0;
  in.target_d_m = 58.0;
  in.min_distance_m = scen.min_distance_m;
  in.speed_mps = scen.speed_mps;
  in.mdata_bytes = scen.mdata_bytes;
  in.divergence = 30.0;
  in.channel = est;
  in.nominal_rho = scen.rho_per_m;
  for (auto _ : state) {
    core::ReDecisionPolicy policy({}, model);
    benchmark::DoNotOptimize(policy.consider(in));
  }
}
BENCHMARK(BM_ReDecision);

// The table behind the decision-service benchmarks below.
policy::PolicyTable decide_bench_table() {
  policy::CompilerConfig cfg;
  cfg.d0 = {60.0, 300.0, 7};
  cfg.speed = {2.0, 20.0, 5};
  cfg.mdata = {5e6, 6e7, 5, true};
  cfg.rho = {1e-4, 5e-3, 7, true};
  return policy::Compiler(cfg).compile();
}

// The compiled-policy hot path: a 1024-query batch through
// DecisionService::decide with every query served by the table backend
// (O(1) 4-D interpolation + one exact utility evaluation at d*). The
// service contract is >= 1e6 decisions/s on one core — amortized <= 1 us
// per decision — which bench_regress.sh pins as an absolute ceiling on
// top of the relative regression gate. The table is compiled once at
// setup (a few hundred exact solves on the thread pool); the measured
// loop performs zero steady-state allocations.
void BM_PolicyDecideBatch(benchmark::State& state) {
  const auto scen = core::Scenario::airplane();
  const auto model = scen.paper_throughput();
  policy::DecisionService service(model);
  service.install_table(decide_bench_table());

  constexpr std::size_t kBatch = 1024;
  std::vector<policy::Query> queries(kBatch);
  std::vector<policy::Decision> answers(kBatch);
  sim::Rng rng(7);
  for (auto& q : queries) {
    q.d0_m = rng.uniform(60.0, 300.0);
    q.speed_mps = rng.uniform(2.0, 20.0);
    q.mdata_bytes = rng.uniform(5e6, 6e7);
    q.rho_per_m = rng.uniform(1e-4, 5e-3);
  }
  for (auto _ : state) {
    service.decide(std::span<const policy::Query>(queries),
                   std::span<policy::Decision>(answers));
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
  if (service.counters().exact != 0) state.SkipWithError("query escaped the table path");
}
BENCHMARK(BM_PolicyDecideBatch);

// The same table path behind the line protocol: one "begin", 64 query
// lines, "end" batch through LineServer::run over in-memory streams —
// tokenize and parse every line, one batched decide(), format four
// exact numbers per reply. What skyferry_decide adds on top of decide().
void BM_LineServerBatch(benchmark::State& state) {
  const auto model = core::Scenario::airplane().paper_throughput();
  policy::DecisionService service(model);
  service.install_table(decide_bench_table());
  policy::ServerOptions opt;
  opt.banner = false;
  const policy::LineServer server(service, opt);

  sim::Rng rng(7);
  std::string request = "begin\n";
  for (int i = 0; i < 64; ++i) {
    for (const double f : {rng.uniform(60.0, 300.0), rng.uniform(2.0, 20.0),
                           rng.uniform(5e6, 6e7), rng.uniform(1e-4, 5e-3)}) {
      request += io::json_number(f);
      request += ' ';
    }
    request.back() = '\n';
  }
  request += "end\n";
  std::size_t served = 0;
  for (auto _ : state) {
    std::istringstream in(request);
    std::ostringstream out;
    served += server.run(in, out);
    benchmark::DoNotOptimize(out);
  }
  if (served != 64 * static_cast<std::size_t>(state.iterations()))
    state.SkipWithError("a query line was not served");
  if (service.counters().exact != 0) state.SkipWithError("query escaped the table path");
}
BENCHMARK(BM_LineServerBatch);

// One served double formatted exactly (io::append_json_number, the
// shortest of %.15g/%.16g/%.17g that round-trips), cycling through 1024
// full-precision values.
void BM_JsonNumber(benchmark::State& state) {
  sim::Rng rng(11);
  std::vector<double> values(1024);
  for (double& v : values) v = std::exp(rng.uniform(-10.0, 20.0));
  std::string buf;
  std::size_t i = 0;
  for (auto _ : state) {
    buf.clear();
    io::append_json_number(buf, values[i++ & 1023]);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JsonNumber);

// One full joint (link, d) decision over all four backends, 1500 m out:
// a single-link search per backend, then a joint search (plus its
// dominance-net evaluation) for each link whose utility bound survives
// the best joint utility found. Every search's grid stage skips blocks by
// bound and reads one column filled on demand.
void BM_MultiLinkDecide(benchmark::State& state) {
  const link::LinkSet set({link::LinkBackendConfig::wifi_80211n(),
                           link::LinkBackendConfig::cellular(), link::LinkBackendConfig::mesh(),
                           link::LinkBackendConfig::leo()});
  const std::vector<const link::LinkBackend*> views = set.views();
  const uav::FailureModel failure(1e-3);
  const link::MultiLinkParams p{1500.0, 10.0, 5e7, 20.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(link::optimize_multilink(views, p, failure));
  }
}
BENCHMARK(BM_MultiLinkDecide);

// The same decision in fleet_multilink_chaos's spawn shape: d0 cycles
// over its 150-275 m spawn ring at the default 4.5 m/s, 50 MB batches,
// rho = 1e-4. Here 802.11n wins and its bound rules the other links out
// without a joint search; links_pruned is the mean number skipped per
// decision (of 3 losers), grid_evaluated the mean grid points (of 256)
// the elected link's joint search evaluated and single_grid_evaluated
// the mean pass-1 grid points summed over the four links (of 1024).
void BM_MultiLinkDecideFleet(benchmark::State& state) {
  const link::LinkSet set({link::LinkBackendConfig::wifi_80211n(),
                           link::LinkBackendConfig::cellular(), link::LinkBackendConfig::mesh(),
                           link::LinkBackendConfig::leo()});
  const std::vector<const link::LinkBackend*> views = set.views();
  const uav::FailureModel failure(1e-4);
  std::vector<link::MultiLinkParams> queries;
  for (int i = 0; i < 64; ++i) queries.push_back({150.0 + 125.0 * i / 63, 4.5, 5e7, 20.0});
  std::size_t q = 0;
  double pruned = 0.0;
  double grid = 0.0;
  for (auto _ : state) {
    const link::MultiLinkResult r = link::optimize_multilink(views, queries[q++ & 63], failure);
    pruned += r.links_pruned;
    grid += r.decision.grid_evaluated;
    benchmark::DoNotOptimize(r);
  }
  state.counters["links_pruned"] = benchmark::Counter(pruned, benchmark::Counter::kAvgIterations);
  state.counters["grid_evaluated"] = benchmark::Counter(grid, benchmark::Counter::kAvgIterations);
  double single_grid = 0.0;
  for (const link::MultiLinkParams& p : queries) {
    for (const core::OptimizeResult& s : link::single_link_decisions(views, p, failure))
      single_grid += s.grid_evaluated;
  }
  state.counters["single_grid_evaluated"] = single_grid / static_cast<double>(queries.size());
}
BENCHMARK(BM_MultiLinkDecideFleet);

// One mid-mission re-election in fleet_multilink_chaos's shape: the
// switch election from 802.11n at 4.5 m/s, rho = 1e-4, 160 m out with a
// 1 KB residual and the fleet's 5 % commit margin. 802.11n's pinned
// search runs; links_pruned is the mean number of the three challengers
// proved below the commit floor without a search, grid_evaluated the
// mean grid points (of 256) the stay link's joint search evaluated.
void BM_MultiLinkReelect(benchmark::State& state) {
  const link::LinkSet set({link::LinkBackendConfig::wifi_80211n(),
                           link::LinkBackendConfig::cellular(), link::LinkBackendConfig::mesh(),
                           link::LinkBackendConfig::leo()});
  const std::vector<const link::LinkBackend*> views = set.views();
  const uav::FailureModel failure(1e-4);
  const link::MultiLinkParams p{160.0, 4.5, 1000.0, 20.0};
  double pruned = 0.0;
  double grid = 0.0;
  for (auto _ : state) {
    const link::SwitchElection r = link::elect_switch(views, p, failure, 0, 0.05);
    pruned += r.links_pruned;
    grid += r.stay.decision.grid_evaluated;
    benchmark::DoNotOptimize(r);
  }
  state.counters["links_pruned"] = benchmark::Counter(pruned, benchmark::Counter::kAvgIterations);
  state.counters["grid_evaluated"] = benchmark::Counter(grid, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MultiLinkReelect);

void BM_PacketErrorRate(benchmark::State& state) {
  const phy::ErrorModel em(0.9);
  double snr = 0.0;
  for (auto _ : state) {
    snr = (snr < 30.0) ? snr + 0.1 : 0.0;
    benchmark::DoNotOptimize(
        em.packet_error_rate(phy::mcs(static_cast<int>(snr) % 16), snr, 12288));
  }
}
BENCHMARK(BM_PacketErrorRate);

void BM_PerTableLookup(benchmark::State& state) {
  const phy::ErrorModel em(0.9);
  const phy::PerTable tab(em, phy::mcs(3), 12288);
  double snr = 0.0, acc = 0.0;
  for (auto _ : state) {
    snr = (snr < 30.0) ? snr + 0.1 : 0.0;
    acc += tab.per(snr);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PerTableLookup);

void BM_PerTableMarginal(benchmark::State& state) {
  const phy::ErrorModel em(0.9);
  const phy::PerTable tab(em, phy::mcs(3), 12288);
  double snr = 0.0, acc = 0.0;
  for (auto _ : state) {
    snr = (snr < 30.0) ? snr + 0.1 : 0.0;
    acc += tab.marginal_per(snr, 2.0);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PerTableMarginal);

void BM_RngBinomial(benchmark::State& state) {
  sim::Rng rng(42);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.binomial(64, 0.3);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngBinomial);

// The draw every fleet A-MPDU exchange makes: n = 14 subframes (the
// fleet's MCS-limited aggregate), delivery probability swept over
// 0.6-0.99 so the walk runs on the flipped small tail, as it does for a
// mostly-clean link.
void BM_RngBinomialAmpdu(benchmark::State& state) {
  std::array<double, 64> ps{};
  for (std::size_t i = 0; i < ps.size(); ++i) ps[i] = 0.6 + 0.39 * static_cast<double>(i) / 63.0;
  sim::Rng rng(42);
  std::uint64_t acc = 0;
  std::size_t j = 0;
  for (auto _ : state) acc += rng.binomial(14, ps[j++ & 63]);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngBinomialAmpdu);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 10007), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventQueue);

void BM_Haversine(benchmark::State& state) {
  const geo::GeoPoint a{47.3769, 8.5417, 400.0};
  geo::GeoPoint b = a;
  double delta = 0.0;
  for (auto _ : state) {
    delta += 1e-6;
    b.lat_deg = a.lat_deg + delta;
    benchmark::DoNotOptimize(geo::haversine_m(a, b));
  }
}
BENCHMARK(BM_Haversine);

// One saturated simulated link-second (simulator construction included —
// that is how Monte-Carlo consumers pay for it; the PER tables are
// shared across iterations the same way a Monte-Carlo sweep shares them
// across trials). The 60 m operating point sits mid-waterfall for the
// quadrocopter link at MCS 1, where the analytic PER chain actually
// runs. The regression harness tracks the kPerMpdu/kAggregate ratio:
// kAggregate must stay >= 10x faster (see BENCH_link_sim.json).
void link_sim_second(benchmark::State& state, mac::LinkFidelity fidelity, double jitter_db) {
  mac::LinkConfig cfg;
  cfg.channel = phy::ChannelConfig::quadrocopter();
  cfg.fidelity = fidelity;
  cfg.per_mpdu_snr_jitter_db = jitter_db;
  cfg.shared_tables = mac::make_shared_per_tables(cfg);
  for (auto _ : state) {
    mac::FixedMcs rc(1);
    mac::LinkSimulator sim(cfg, rc, 42);
    benchmark::DoNotOptimize(sim.run_saturated(1.0, mac::static_geometry(60.0)));
  }
}

void BM_LinkSimSecondPerMpdu(benchmark::State& state) {
  link_sim_second(state, mac::LinkFidelity::kPerMpdu, 2.0);
}
BENCHMARK(BM_LinkSimSecondPerMpdu);

void BM_LinkSimSecondAggregate(benchmark::State& state) {
  link_sim_second(state, mac::LinkFidelity::kAggregate, 2.0);
}
BENCHMARK(BM_LinkSimSecondAggregate);

void BM_LinkSimSecondAggregateNoJitter(benchmark::State& state) {
  link_sim_second(state, mac::LinkFidelity::kAggregate, 0.0);
}
BENCHMARK(BM_LinkSimSecondAggregateNoJitter);

// One 4096-packet batch through selective-repeat ARQ (window 64) over a
// seeded 10 %-loss channel: the sender's per-packet bookkeeping must
// scale with the window, not the batch.
void BM_ArqTransfer(benchmark::State& state) {
  constexpr std::uint32_t kPackets = 4096;
  const net::ArqConfig cfg{64, 1470, 16};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    net::ArqSender tx(cfg, kPackets);
    net::ArqReceiver rx(cfg, kPackets);
    sim::Rng loss(++seed);
    while (!tx.complete()) {
      const auto p = tx.next_packet(0.0);
      if (!p) {
        tx.on_ack(rx.make_ack());  // window full: the receiver's ack timer fires
        continue;
      }
      if (loss.bernoulli(0.1)) continue;
      if (auto ack = rx.on_packet(*p)) tx.on_ack(*ack);
    }
    benchmark::DoNotOptimize(tx.transmissions());
  }
}
BENCHMARK(BM_ArqTransfer);

void BM_MonteCarloTrial(benchmark::State& state) {
  fault::TrialSpec spec;
  spec.scenario = core::Scenario::quadrocopter();
  spec.faults = fault::FaultPlan::harsh();
  spec.target_packets = 64;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::run_mission_trial(spec, ++seed));
  }
}
BENCHMARK(BM_MonteCarloTrial);

void BM_MonteCarloTrialLinkSim(benchmark::State& state) {
  fault::TrialSpec spec;
  spec.scenario = core::Scenario::quadrocopter();
  spec.faults = fault::FaultPlan::harsh();
  spec.target_packets = 64;
  spec.use_link_simulator = true;  // kAggregate fidelity by default
  spec.with_shared_link_tables();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::run_mission_trial(spec, ++seed));
  }
}
BENCHMARK(BM_MonteCarloTrialLinkSim);

void BM_StrategyTransferCurve(benchmark::State& state) {
  const auto model = core::PaperLogThroughput::quadrocopter();
  const core::SpeedDegradation deg{};
  const core::DeliveryParams params{80.0, 4.5, 20e6, 20.0};
  core::StrategySpec spec;
  spec.kind = core::StrategyKind::kShipThenTransmit;
  spec.target_distance_m = 60.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate_strategy(spec, model, deg, params));
  }
}
BENCHMARK(BM_StrategyTransferCurve);

// --- Fleet-scale stepping (DESIGN.md §12) --------------------------------
//
// BM_FleetStep1k: 1000 UAVs in one shared collision domain, saturated
// transfers that never drain, advanced one 50 ms step per iteration.
// The Bianchi stretch makes each exchange span many sweeps, so nearly
// every iteration takes the idle-sweep skip: it times that skip, not
// the exchange kernel (BM_FleetWifiMix below does). bench_regress.sh
// pins it under an absolute ceiling (the real-time-at-n=1000 claim
// needs < 50 ms/step on one core).

void BM_FleetStep1k(benchmark::State& state) {
  fleet::FleetConfig cfg;
  cfg.threads = 1;             // the ceiling is a single-core budget
  cfg.cell_size_m = 1e8;       // one global collision domain
  cfg.max_tx_per_cell = 1000;  // everyone admitted; Bianchi stretches airtime
  fleet::FleetEngine eng(cfg, 42);
  for (int i = 0; i < 1000; ++i) {
    fleet::MissionSpec spec;
    spec.start_pos = {40.0, 4.0 * i, 10.0};
    spec.receiver_pos = {0.0, 4.0 * i, 10.0};
    spec.fixed_target_distance_m = 40.0;  // transmit from the spawn point
    spec.mdata_bytes = 1.0e15;            // never drains: steady-state stepping
    spec.rho_per_m = 0.0;
    eng.add_mission(spec);
  }
  eng.run_until(1.0);  // past the spawn + first-exchange transient
  for (auto _ : state) {
    eng.step();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetLabel("idle-sweep skip");
}
BENCHMARK(BM_FleetStep1k);

// Active UAV-steps (spawned, not yet done or failed) over one untimed
// pass of `eng` to `horizon_s`: the denominator of the
// ns_per_active_uav_step counter, perfbench's fleet.ns_per_active_uav_step.
double count_active_uav_steps(fleet::FleetEngine& eng,
                              const std::vector<fleet::MissionSpec>& missions, double horizon_s) {
  double steps = 0.0;
  std::size_t spawned = 0;
  while (eng.now() + eng.config().dt_s <= horizon_s + 1e-12) {
    while (spawned < missions.size() && missions[spawned].spawn_t_s <= eng.now()) ++spawned;
    const fleet::FleetTotals before = eng.totals();
    steps += static_cast<double>(spawned - std::min(spawned, before.completed + before.failed));
    eng.step();
  }
  return steps;
}

// One iteration builds a fresh engine (untimed) and times its
// run_until(horizon_s).
template <class Make>
void time_fleet_mix(benchmark::State& state, double horizon_s, double active_uav_steps,
                    const Make& make) {
  double timed_s = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::unique_ptr<fleet::FleetEngine> eng = make();
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    eng->run_until(horizon_s);
    timed_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    benchmark::DoNotOptimize(eng->now());
  }
  state.counters["ns_per_active_uav_step"] =
      timed_s * 1e9 / (static_cast<double>(state.iterations()) * active_uav_steps);
}

// Poisson arrivals in simulated time into six-UAV receiver groups on a
// 500 m grid (`width` receivers a row), each starting 150-275 m out:
// perfbench's fleet mission layout.
std::vector<fleet::MissionSpec> fleet_mix_missions(const char* stream, int n, int width,
                                                   double mdata_bytes, double deadline_s) {
  std::vector<fleet::MissionSpec> missions;
  sim::Rng rng(sim::derive_seed(1, stream));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(10.0);
    const int g = i / 6;
    fleet::MissionSpec s;
    s.receiver_pos = {500.0 * (g % width), 500.0 * (g / width), 10.0};
    s.start_pos = s.receiver_pos + geo::Vec3{rng.uniform(150.0, 275.0), 0.0, 0.0};
    s.mdata_bytes = mdata_bytes;
    s.rho_per_m = 1.0e-4;
    s.spawn_t_s = t;
    s.deadline_s = t + deadline_s;
    missions.push_back(s);
  }
  return missions;
}

// BM_FleetWifiMix: perfbench's fleet_wifi shape at microbenchmark size.
// 160 missions arrive as a Poisson stream (10/s) into six-UAV receiver
// groups on a 500 m grid, decide through a compiled policy table, ferry,
// and ship 8 MB each through contended cells. One iteration runs a
// fresh fleet from the first spawn to a 40 s horizon, so the timed steps
// mix decides, kinematics, transmit-set rebuilds (arrivals alone land
// every other sweep), admission and A-MPDU exchanges.
// Building the engine and registering the missions is untimed.
struct WifiMix {
  std::vector<fleet::MissionSpec> missions;
  policy::PolicyTable table;
  double horizon_s{40.0};
  double active_uav_steps{0.0};
  bool table_only{false};  ///< every decide was a table lookup
};

std::unique_ptr<fleet::FleetEngine> wifi_mix_engine(const WifiMix& mix) {
  auto eng = std::make_unique<fleet::FleetEngine>(fleet::FleetConfig{}, 1);
  for (const fleet::MissionSpec& m : mix.missions) eng->add_mission(m);
  eng->install_policy_table(mix.table);
  return eng;
}

const WifiMix& wifi_mix() {
  static const WifiMix mix = [] {
    WifiMix m;
    m.missions = fleet_mix_missions("bench/fleet_wifi_mix", 160, 6, 8.0e6, 90.0);
    // perfbench's quadrocopter table: every spawn query is a lookup.
    policy::CompilerConfig c;
    c.model = {-10.5, 73.0, 1e6, 20.0, "paper-quadrocopter"};
    c.min_distance_m = 20.0;
    c.d0 = {40.0, 400.0, 19};
    c.speed = {1.0, 10.0, 5};
    c.mdata = {1e6, 1e8, 9, true};
    c.rho = {1e-5, 1e-3, 5, true};
    m.table = policy::Compiler(c).compile();
    // The decide backend is checked once on the untimed counting pass.
    const std::unique_ptr<fleet::FleetEngine> eng = wifi_mix_engine(m);
    m.active_uav_steps = count_active_uav_steps(*eng, m.missions, m.horizon_s);
    m.table_only = eng->service().counters().exact == 0;
    return m;
  }();
  return mix;
}

void BM_FleetWifiMix(benchmark::State& state) {
  const WifiMix& mix = wifi_mix();
  if (!mix.table_only) state.SkipWithError("decide escaped the table");
  time_fleet_mix(state, mix.horizon_s, mix.active_uav_steps, [&] { return wifi_mix_engine(mix); });
}
BENCHMARK(BM_FleetWifiMix)->Unit(benchmark::kMillisecond);

// BM_FleetChaosMix: perfbench's fleet_multilink_chaos shape at
// microbenchmark size. 160 missions arrive as a Poisson stream (10/s)
// on the same layout, elect a (link, d) pair over four backends with
// the exact multi-link solve, and ship 50 MB each under the combined
// chaos plan (802.11n blackouts, degradation epochs and flaky setup,
// plus regional storms) with re-election on. One iteration runs a
// fresh fleet from the first spawn to a 60 s horizon, so the timed
// steps cover spawn decides, the ferry sweep over the flying rows, the
// transmit-set rebuilds, exchanges behind the chaos gates and the
// re-election ladder. Building the engine is untimed.
struct ChaosMix {
  fleet::FleetConfig cfg;
  std::vector<fleet::MissionSpec> missions;
  double horizon_s{60.0};
  double active_uav_steps{0.0};
  std::uint64_t reelections{0};  ///< per pass, checked on the untimed pass
};

std::unique_ptr<fleet::FleetEngine> chaos_mix_engine(const ChaosMix& mix) {
  auto eng = std::make_unique<fleet::FleetEngine>(mix.cfg, 1);
  for (const fleet::MissionSpec& m : mix.missions) eng->add_mission(m);
  return eng;
}

const ChaosMix& chaos_mix() {
  static const ChaosMix mix = [] {
    ChaosMix m;
    m.cfg.links = std::make_shared<const link::LinkSet>(std::vector<link::LinkBackendConfig>{
        link::LinkBackendConfig::wifi_80211n(), link::LinkBackendConfig::cellular(),
        link::LinkBackendConfig::mesh(), link::LinkBackendConfig::leo()});
    fault::LinkFaultPlan& p = m.cfg.link_chaos;
    p.links.resize(1);
    p.links[0].blackout_rate_per_hour = 40.0;
    p.links[0].blackout_mean_s = 25.0;
    p.links[0].degrade_rate_per_hour = 30.0;
    p.links[0].degrade_mean_s = 45.0;
    p.links[0].degrade_rate_scale = 0.2;
    p.links[0].setup_fail_p = 0.3;
    p.storm = {10.0, 30.0, 0.4};
    p.seed = sim::derive_seed(1, "bench/fleet_chaos_mix/chaos");
    m.cfg.reelection.enabled = true;
    m.missions = fleet_mix_missions("bench/fleet_chaos_mix", 160, 6, 5.0e7, 120.0);
    const std::unique_ptr<fleet::FleetEngine> eng = chaos_mix_engine(m);
    m.active_uav_steps = count_active_uav_steps(*eng, m.missions, m.horizon_s);
    m.reelections = eng->totals().reelections;
    return m;
  }();
  return mix;
}

void BM_FleetChaosMix(benchmark::State& state) {
  const ChaosMix& mix = chaos_mix();
  if (mix.reelections == 0) state.SkipWithError("the chaos plan tripped no re-election");
  time_fleet_mix(state, mix.horizon_s, mix.active_uav_steps,
                 [&] { return chaos_mix_engine(mix); });
}
BENCHMARK(BM_FleetChaosMix)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
