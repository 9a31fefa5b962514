// The offline half of the decision service: sweep the decision space in
// fixed chunks of knots on an exp::ThreadPool (deterministic for any
// thread count) and bake every knot's exact optimize() answer into a
// PolicyTable. Compiling is the expensive step you pay once per (model,
// domain); serving is the O(1) interpolation the fleet pays per decision.
#pragma once

#include <cstdint>

#include "core/optimizer.h"
#include "policy/table.h"
#include "sim/rng.h"

namespace skyferry::policy {

/// One axis of the compile domain.
struct AxisSpec {
  double lo{0.0};
  double hi{0.0};
  int n{2};
  bool log10_spaced{false};
};

struct CompilerConfig {
  /// Throughput model the table is compiled against (paper log2 fit).
  TableModelSpec model{-5.56, 49.0, 1e6, 20.0, "paper-airplane"};
  /// Anti-collision floor baked into every knot's feasible interval.
  double min_distance_m{20.0};
  /// Exact-solver schedule for the knots (the defaults every online
  /// caller uses, so table answers approximate the same solver).
  core::OptimizeOptions optimize{};

  AxisSpec d0{40.0, 600.0, 29};
  AxisSpec speed{1.0, 30.0, 13};
  /// The d* surface is most curved along data size (it moves the
  /// interior/transmit-now tie), so this axis carries the most knots.
  AxisSpec mdata{1e6, 2e8, 25, true};
  AxisSpec rho{1e-6, 5e-3, 17, true};

  int threads{0};  ///< <= 0: one worker per hardware thread
};

/// Worst-case deviations between *served* (interpolated + candidate
/// competition, exactly the DecisionService table path) and exact
/// answers over a random sample of the compiled domain — the
/// machine-checked accuracy contract, an ε-δ guarantee: every served
/// decision is ε-optimal in utility (regret ≤ kPlateauRegret) OR
/// within δ meters of the exact d*. The utility regret is the binding
/// bound — it is second-order in grid spacing because the service
/// re-evaluates U exactly at every candidate and U is stationary at
/// the optimum. The argmax itself is ill-conditioned wherever U is
/// flat or two modes tie (far-apart distances earn near-equal
/// utility), so demanding d* accuracy *within* the regret plateau is
/// meaningless; beyond it, max_d_err_m is the δ safety net that
/// catches a structurally broken table.
struct ValidationReport {
  /// Regret at or below this is "on the plateau": the served d* is
  /// operationally indistinguishable from the exact one.
  static constexpr double kPlateauRegret = 0.02;

  int samples{0};
  /// max |d*_served − d*_exact| over samples whose regret exceeds
  /// kPlateauRegret — 0 when every sample met the regret bound.
  double max_d_err_m{0.0};
  /// max relative utility regret of the served decision over ALL
  /// samples — the primary contract (default-grid audits measure
  /// ≤ ~0.7%).
  double max_utility_rel_err{0.0};
  int boundary_mismatches{0};
  /// A boundary mismatch only counts against the table when the exact
  /// optimum is not within `d_err` of the boundary threshold itself and
  /// the regret exceeds kPlateauRegret (a genuine wrong mode, not a
  /// tie); knife edges are recorded here instead.
  int boundary_knife_edges{0};
};

class Compiler {
 public:
  explicit Compiler(CompilerConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const CompilerConfig& config() const noexcept { return cfg_; }

  /// Sweep the full cartesian grid and return the compiled table.
  /// Deterministic for a fixed config regardless of thread count.
  [[nodiscard]] PolicyTable compile() const;

  /// Monte-Carlo accuracy audit: `samples` uniform random points in the
  /// compiled domain (log axes sampled in log space), each answered by
  /// both the table and the exact solver.
  [[nodiscard]] static ValidationReport validate(const PolicyTable& table, int samples,
                                                 std::uint64_t seed = 1);

 private:
  CompilerConfig cfg_;
};

}  // namespace skyferry::policy
