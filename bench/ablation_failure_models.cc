// Ablation — failure-law sensitivity (the paper's conclusion calls for
// "introducing a specific failure model"): how the optimal transmit
// distance and achievable utility move when the exponential discount is
// replaced by linear or Weibull laws with the same mean distance-to-
// failure.
//
// Engine-backed: the (scenario x rho x law) grid is an exp::Sweep with
// one deterministic optimizer solve per point — the seeds are unused,
// the parallelism is free, and the table order is the sweep order. Each
// point writes its own pre-assigned row, so the engine's result grid
// only carries a status (nothing is checkpointed, no codec is needed)
// and a throwing solve is recorded, not retried.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/nonstationary.h"
#include "core/scenario.h"
#include "exp/cli.h"
#include "exp/supervisor.h"
#include "io/table.h"
#include "policy/api.h"

namespace {

using namespace skyferry;

struct LawRow {
  double d_opt_m{0.0};
  double utility{0.0};
  double discount{0.0};
};

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;
  exp::Cli cli("ablation_failure_models");
  cli.flag("--threads", &threads, "worker threads, 0 = one per hardware thread");
  bench::Report report(cli);
  bench::PolicyTableFlag policy_flag(cli);
  cli.parse_or_exit(argc, argv);
  cli.print_replay_header();

  struct Law {
    const char* name;
    uav::FailureLaw law;
  };
  const Law laws[] = {{"exponential", uav::FailureLaw::kExponential},
                      {"linear", uav::FailureLaw::kLinear},
                      {"weibull(k=2)", uav::FailureLaw::kWeibull}};
  const core::Scenario scenarios[] = {core::Scenario::airplane(), core::Scenario::quadrocopter()};

  exp::RunStats total;
  total.name = "ablation_failure_models";
  for (std::size_t si = 0; si < 2; ++si) {
    const auto& scen = scenarios[si];
    const auto model = scen.paper_throughput();
    policy::DecisionService service(model);
    policy_flag.install_into(service);
    const std::vector<double> rhos{scen.rho_per_m, 1e-3, 5e-3, 1e-2};
    const auto points = exp::Sweep{}
                            .axis("rho", rhos)
                            .axis("law", {0.0, 1.0, 2.0})
                            .cartesian();
    exp::RunnerConfig rc;
    rc.threads = threads;
    rc.trials = 1;  // the solve is deterministic; the sweep is the work
    exp::SupervisorOptions so;
    so.max_retries = 0;
    std::vector<LawRow> rows(points.size());
    // One shared service, decide_one() from every worker thread — the
    // service's decide path is const and race-free by design.
    const auto run = exp::SupervisedRunner(rc, so).run(points, [&](const exp::Point& p,
                                                                   std::uint64_t) {
      policy::Query q;
      q.d0_m = scen.d0_m;
      q.speed_mps = scen.delivery_params().speed_mps;
      q.mdata_bytes = scen.mdata_bytes;
      q.min_distance_m = scen.delivery_params().min_distance_m;
      q.rho_per_m = p.at("rho");
      q.law = laws[static_cast<int>(p.at("law"))].law;
      const auto r = service.decide_one(q);
      rows[p.index] = LawRow{r.d_opt_m, r.utility, r.discount};
      return 0;
    });
    total.merge(run.stats);

    std::printf("\n%s scenario (Mdata=%.1f MB, d0=%.0f m)\n", scen.name.c_str(),
                scen.mdata_bytes / 1e6, scen.d0_m);
    io::Table t("failure-law ablation");
    t.columns({"rho_1/m", "law", "d_opt_m", "U(d_opt)", "survival@d_opt"});
    for (const auto& p : points) {
      const LawRow& r = rows[p.index];
      t.add_row(io::format_number(p.at("rho")) + " " + laws[static_cast<int>(p.at("law"))].name,
                {r.d_opt_m, r.utility, r.discount});
    }
    t.print();

    // Laws agree where the discount is ~1 (baseline rho), and the
    // exponential optimum never sits inside the Weibull one at high rho.
    double agree_spread = 0.0;
    double exp_dopt_hi = 0.0, weibull_dopt_hi = 0.0;
    for (const auto& p : points) {
      const LawRow& r = rows[p.index];
      if (p.at("rho") == rhos.front()) {
        const LawRow& base = rows[points[0].index];
        agree_spread = std::max(agree_spread, std::abs(r.d_opt_m - base.d_opt_m));
      }
      if (p.at("rho") == 1e-2) {
        if (p.at("law") == 0.0) exp_dopt_hi = r.d_opt_m;
        if (p.at("law") == 2.0) weibull_dopt_hi = r.d_opt_m;
      }
    }
    report.claim(scen.name + "_laws_agree_at_baseline_rho", agree_spread <= 10.0,
                 "discount ~ 1 everywhere, so the law barely matters");
    report.claim(scen.name + "_exponential_pulls_hardest_at_high_rho",
                 exp_dopt_hi >= weibull_dopt_hi - 1e-9);
    report.metric(scen.name + "_exp_dopt_rho1e-2_m", exp_dopt_hi,
                  check::Tolerance::absolute(10.0));
  }
  std::printf(
      "reading: the laws agree at small rho (discount ~ 1 everywhere); at\n"
      "high rho the heavier-tailed exponential pulls d_opt toward d0 harder\n"
      "than Weibull, while the linear law truncates survival entirely —\n"
      "the paper's qualitative conclusion (a delay-vs-risk sweet spot\n"
      "exists) survives the change of law.\n");

  // Non-stationary profiles — the case the paper explicitly flags as
  // breaking its stationary analysis ("Different results are expected,
  // e.g., for a non-stationary failure rate").
  {
    const auto scen = core::Scenario::quadrocopter();
    const auto model = scen.paper_throughput();
    const core::CommDelayModel delay(model, scen.delivery_params());
    io::Table t("non-stationary rho(x) profiles, quadrocopter scenario");
    t.columns({"profile", "d_opt_m", "U(d_opt)", "survival"});
    struct Row {
      const char* name;
      core::RhoProfile rho;
    };
    const Row rows[] = {
        {"constant (baseline)", core::constant_rho(scen.rho_per_m)},
        {"hazard zone <40 m (rho=0.05)", core::two_zone_rho(scen.rho_per_m, 0.05, 40.0)},
        {"rising toward peer (linear)", core::linear_rho(0.05, -4.8e-4)},
        {"rising away from peer", core::linear_rho(scen.rho_per_m, 2e-5)},
    };
    const auto points = exp::Sweep{}.axis("profile", {0.0, 1.0, 2.0, 3.0}).cartesian();
    exp::RunnerConfig rc;
    rc.threads = threads;
    rc.trials = 1;
    exp::SupervisorOptions so;
    so.max_retries = 0;
    std::vector<LawRow> out(points.size());
    const auto run = exp::SupervisedRunner(rc, so).run(points, [&](const exp::Point& p,
                                                                   std::uint64_t) {
      const auto r = core::optimize_nonstationary(delay, rows[static_cast<int>(p.at("profile"))].rho);
      out[p.index] = LawRow{r.d_opt_m, r.utility, r.survival};
      return 0;
    });
    total.merge(run.stats);
    for (const auto& p : points) {
      const LawRow& r = out[p.index];
      t.add_row(rows[static_cast<int>(p.at("profile"))].name, {r.d_opt_m, r.utility, r.discount});
    }
    t.print();

    const double hazard_dopt = out[points[1].index].d_opt_m;
    const double linear_dopt = out[points[2].index].d_opt_m;
    report.metric("nonstationary_hazard_zone_dopt_m", hazard_dopt,
                  check::Tolerance::absolute(5.0),
                  "EXPERIMENTS.md: optimum parks at the ~40 m hazard boundary");
    report.metric("nonstationary_linear_dopt_m", linear_dopt, check::Tolerance::absolute(5.0),
                  "EXPERIMENTS.md: rising-toward-peer profile stops at ~68 m");
    report.claim("hazard_zone_lifts_optimum_off_floor", hazard_dopt > 30.0,
                 "the stationary model would dive to the 20 m floor");
    std::printf(
        "reading: a hazardous close zone parks the optimum at the hazard\n"
        "boundary instead of the 20 m floor — the stationary optimum is no\n"
        "longer path-independent, exactly as the paper anticipates.\n");
  }
  std::printf("%s\n", total.summary_line().c_str());
  if (total.write_json("ablation_failure_models_stats.json"))
    std::printf("stats: ablation_failure_models_stats.json\n");
  return report.emit() ? 0 : 1;
}
