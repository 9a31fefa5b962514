// Multi-link extension figure: "now, later — or on which link?"
//
// Sweeps the contact distance d0 for a UAV carrying the paper's batch
// with all four link backends enabled (802.11n burst, cellular, mesh,
// LEO) and compares the joint (link, d) decision against each link
// alone. Shows where the burst election flips (802.11n close in, the
// rate-floored cellular far out), how much of the batch the background
// links trickle away during the ferry leg, and pins the dominance
// contract — the joint decision never loses to the best single link.
//
// Wall-clock free and fully seeded, so every metric is golden-pinned
// exactly (scripts/golden_regress.sh entry fig_multilink).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/cli.h"
#include "io/table.h"
#include "link/multilink.h"
#include "mac/link.h"
#include "uav/failure.h"

int main(int argc, char** argv) {
  skyferry::exp::Cli cli("fig_multilink");
  skyferry::bench::Report report(cli);
  std::uint64_t seed = 20260809;
  double speed = 10.0;
  double mdata = 5.0e7;
  double rho = 1.0e-3;
  cli.flag("--seed", &seed, "session RNG seed (decisions themselves are deterministic)")
      .flag("--speed", &speed, "approach speed v [m/s]")
      .flag("--mdata", &mdata, "batch size Mdata [bytes]")
      .flag("--rho", &rho, "per-meter failure rate");
  cli.parse_or_exit(argc, argv);
  cli.print_replay_header();
  using namespace skyferry;

  const link::LinkSet set({link::LinkBackendConfig::wifi_80211n(),
                           link::LinkBackendConfig::cellular(), link::LinkBackendConfig::mesh(),
                           link::LinkBackendConfig::leo()});
  const std::vector<const link::LinkBackend*> views = set.views();
  const uav::FailureModel failure(rho);

  io::Table t("joint (link, d) decision vs best single link (v = " + io::format_number(speed) +
              " m/s, Mdata = " + io::format_number(mdata / 1e6) + " MB, rho = " +
              io::format_number(rho) + "/m)");
  t.columns({"d0 [m]", "burst link", "d* [m]", "trickle [MB]", "U_joint", "U_best_single",
             "gain [%]"});

  bool dominance = true;
  for (const double d0 : {150.0, 400.0, 800.0, 1500.0, 3000.0, 6000.0}) {
    const link::MultiLinkParams p{d0, speed, mdata, 20.0};
    const link::MultiLinkResult r = link::optimize_multilink(views, p, failure);
    double best_single = 0.0;
    for (const core::OptimizeResult& s : link::single_link_decisions(views, p, failure))
      best_single = std::max(best_single, s.utility);
    dominance = dominance && r.decision.utility >= best_single;
    const double gain =
        best_single > 0.0 ? 100.0 * (r.decision.utility / best_single - 1.0) : 0.0;
    const std::string burst_name =
        r.burst_link >= 0 ? set.backend(static_cast<std::size_t>(r.burst_link)).name() : "-";
    t.add_row(io::format_number(d0),
              {static_cast<double>(r.burst_link), r.decision.d_opt_m, r.trickle_bytes / 1e6,
               r.decision.utility, best_single, gain});
    std::printf("  d0 %6.0f m: burst on %-12s d* %7.1f m, trickle %6.2f MB, gain %+.2f%%\n", d0,
                burst_name.c_str(), r.decision.d_opt_m, r.trickle_bytes / 1e6, gain);

    const std::string tag = "d0_" + io::format_number(d0);
    report.metric("joint_utility_" + tag, r.decision.utility, check::Tolerance::exact(),
                  "deterministic joint optimizer");
    report.metric("burst_link_" + tag, static_cast<double>(r.burst_link),
                  check::Tolerance::exact(), "elected burst link index (wifi/cell/mesh/leo)");
    report.metric("trickle_bytes_" + tag, r.trickle_bytes, check::Tolerance::exact(),
                  "background bytes shipped during the ferry leg");
  }
  t.print();
  report.claim("joint_dominates_best_single_link", dominance,
               "EXPERIMENTS.md: trickling in the background never hurts the decision");

  // One seeded transfer session per backend at a mid-range contact —
  // the simulation layer behind the decision curves, pinned exactly.
  std::printf("\nseeded 1 MB transfer sessions at 300 m (seed %llu):\n",
              static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < set.size(); ++i) {
    const link::LinkBackend& bk = set.backend(i);
    const mac::LinkRunResult res =
        bk.make_session(seed)->run_transfer(1'000'000, 600.0, mac::static_geometry(300.0));
    std::printf("  %-12s %8.1f kbit delivered in %7.2f s (%s)\n", bk.name().c_str(),
                static_cast<double>(res.payload_bits_delivered) / 1e3, res.duration_s,
                res.completed ? "complete" : "timeout");
    report.metric("session_bits_" + bk.name(), static_cast<double>(res.payload_bits_delivered),
                  check::Tolerance::exact(), "seeded session transfer, 300 m contact");
  }

  std::printf(
      "\nreading: close in, the background links are fast enough to pre-ship\n"
      "the whole batch during even a short ferry leg, so the 802.11n election\n"
      "carries an empty burst and the joint utility jumps ~50%% over the best\n"
      "single link; far out, the election flips to the rate-floored cellular\n"
      "(and eventually LEO) transmitting now — d* = d0 leaves no ferry window,\n"
      "no trickle, and the joint decision degenerates to the best single link\n"
      "exactly, which is the dominance contract's equality branch.\n");
  return report.emit() ? 0 : 1;
}
