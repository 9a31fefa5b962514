// mc_campaign: fault::run_monte_carlo on the quadrocopter scenario under
// FaultPlan::harsh(), with the measured link (kAggregate, shared PER
// tables) and the resilience stack on. One operation is one trial.
#include <limits>

#include "fault/monte_carlo.h"
#include "mac/link.h"
#include "mac/rate_control.h"
#include "phy/mcs.h"
#include "policy/service.h"
#include "sim/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace skyferry;

constexpr int kTrials = 2000;  // per pass: >= 1000 samples for p99
constexpr int kThreads = 1;  // a copy per CPU (see kMaxCopies)
constexpr int kProbeStride = 40;  // probe every 40th trial of a traced pass
constexpr int kBlockAckBits = 32 * 8;  // mac/link.cc

// Program set-up: the trial spec with its shared PER-table cache. Every
// table a trial's link measurement can ask for is built here, as
// FleetEngine's constructor does, so no pass pays lazy construction.
fault::TrialSpec build_spec() {
  fault::TrialSpec spec;
  spec.with_scenario(core::Scenario::quadrocopter())
      .with_faults(fault::FaultPlan::harsh())
      .with_link_simulator(true, mac::LinkFidelity::kAggregate)
      .with_shared_link_tables();
  spec.resilience.enabled = true;
  const mac::LinkConfig lc;  // the measured link's frame format (mission_sim.cc)
  for (int m = 0; m < phy::kNumMcs; ++m)
    (void)spec.link_tables->table(phy::mcs(m), lc.mpdu.mpdu_bits(), lc.per_mpdu_snr_jitter_db);
  (void)spec.link_tables->table(phy::mcs(0), kBlockAckBits);
  return spec;
}

// The planner's query for every trial (policy/planner.cc).
policy::Query trial_query(const core::Scenario& sc) {
  policy::Query q;
  q.d0_m = sc.d0_m;
  q.speed_mps = sc.speed_mps;
  q.mdata_bytes = sc.mdata_bytes;
  q.min_distance_m = sc.min_distance_m;
  q.rho_per_m = sc.rho_per_m;
  return q;
}

}  // namespace

RunResult run_mc_campaign(const Options& opt) {
  RunResult r;
  r.threads = kThreads;
  Tracer tracer(opt.trace);
  std::vector<double> p50_us, p99_us, trial_mean_us;
  std::vector<double> occupancy, speedup, link_us_per_sim_s, link_us, optimize_us;
  fault::MonteCarloSummary last;

  auto setup = [&] {
    const double s0 = now_s();
    fault::MonteCarloConfig cfg;
    cfg.with_spec(build_spec()).with_trials(kTrials).with_seed(opt.seed).with_threads(
        kThreads);
    r.setup_s.push_back(now_s() - s0);
    return cfg;
  };
  // Checks a finished pass and records its rate and trial latencies.
  auto finish = [&](fault::MonteCarloSummary& s, double wall, bool traced) {
    r.ops += static_cast<std::uint64_t>(kTrials);
    check_mc(s, r.checks);
    expect_digest(r, digest_mc(s), static_cast<std::uint64_t>(kTrials),
                  traced ? "traced pass" : "pass");
    (traced ? r.traced_rates : r.untraced_rates).push_back(kTrials / wall);
    const exp::RunStats& rs = s.run_stats;
    if (!rs.per_point.empty()) {
      p50_us.push_back(rs.per_point[0].p50_ms * 1e3);
      p99_us.push_back(rs.per_point[0].p99_ms * 1e3);
    }
    last = std::move(s);
  };

  // Traced runs alternate untraced and traced passes on this thread.
  auto one_pass = [&](int kind, std::uint64_t round) {
    const fault::MonteCarloConfig cfg = setup();
    Tracer off(false);
    Tracer& tr = kind == 1 ? tracer : off;
    const int id = tr.open("fault.run_monte_carlo", round);
    const double t0 = now_s();
    fault::MonteCarloSummary s = fault::run_monte_carlo(cfg);
    const double wall = now_s() - t0;
    tr.close(id);

    const exp::RunStats& rs = s.run_stats;
    if (kind == 1) {
      occupancy.push_back(rs.occupancy);
      speedup.push_back(rs.speedup_vs_serial);
      trial_mean_us.push_back(rs.total_trial_s * 1e6 / kTrials);
      // Layer probes on a sample of the pass's own trials: the exact
      // decision each trial makes, and its saturated link measurement.
      const fault::TrialSpec& spec = cfg.spec;
      const core::PaperLogThroughput model = spec.scenario.paper_throughput();
      const policy::DecisionService exact(model);
      const policy::Query q = trial_query(spec.scenario);
      for (int t = 0; t < kTrials; t += kProbeStride) {
        const auto trial = static_cast<std::uint64_t>(t);
        const int oid = tr.open("core.optimize", trial);
        const policy::Decision d = exact.decide_one(q);
        tr.close(oid);
        optimize_us.push_back(tr.spans()[static_cast<std::size_t>(oid)].duration_s() * 1e6);

        mac::LinkConfig lc;
        lc.channel = spec.link_channel;
        lc.fidelity = spec.link_fidelity;
        lc.meter_window_s = std::numeric_limits<double>::infinity();
        lc.shared_tables = spec.link_tables;
        mac::ArfRate rc;
        const std::uint64_t trial_seed = sim::fork(opt.seed, 0, trial);
        mac::LinkSimulator link(lc, rc, sim::derive_seed(trial_seed, "fault/link"));
        const int lid = tr.open("mac.link_sim", trial);
        (void)link.run_saturated(spec.link_sim_duration_s, mac::static_geometry(d.d_opt_m));
        tr.close(lid);
        const double us = tr.spans()[static_cast<std::size_t>(lid)].duration_s() * 1e6;
        link_us.push_back(us);
        link_us_per_sim_s.push_back(us / spec.link_sim_duration_s);
      }
    }
    finish(s, wall, kind == 1);
    return wall;
  };
  if (!opt.trace) {
    struct Pass {
      fault::MonteCarloSummary summary;
      double wall{0.0};
    };
    r.copies = copy_rounds(
        opt.seconds, [&](std::uint64_t) { return setup(); },
        [&](const fault::MonteCarloConfig& cfg, std::uint64_t) {
          Pass p;
          const double t0 = now_s();
          p.summary = fault::run_monte_carlo(cfg);
          p.wall = now_s() - t0;
          return p;
        },
        [&](const fault::MonteCarloConfig&, Pass& p) { finish(p.summary, p.wall, false); });
  } else {
    pass_loop(opt.seconds, 2, one_pass);
  }

  const auto samples = static_cast<double>(kTrials) * static_cast<double>(p50_us.size());
  r.extra = {
      {"op_p50_us", median(p50_us), "us"},
      {"op_p99_us", samples_beyond(kTrials, 99.0) >= 10 ? median(p99_us) : 0.0, "us"},
      {"op_samples", samples, "count"},
      {"delivered_frac", last.mean_delivered_fraction, "1"},
  };
  if (!opt.trace) return r;

  r.layer = {
      {"exp.occupancy", median(occupancy), "1"},
      {"exp.speedup_vs_serial", median(speedup), "x"},
      {"exp.trial_p50_ms", median(p50_us) / 1e3, "ms"},
      {"exp.trial_p99_ms", median(p99_us) / 1e3, "ms"},
      {"mac.link_sim_us_per_sim_s", median(link_us_per_sim_s), "us/s"},
      {"core.optimize_us", median(optimize_us), "us"},
      {"fault.trial_self_us", median(trial_mean_us) - mean(link_us) - mean(optimize_us), "us"},
      {"fault.arq_retransmissions_mean", last.mean_arq_retransmissions, "count"},
      {"fault.control_retries_mean", last.mean_control_retries, "count"},
      {"fault.crashes", static_cast<double>(last.crashes), "count"},
  };
  if (!opt.trace_out.empty()) tracer.write_jsonl(opt.trace_out);
  return r;
}

}  // namespace perfbench
