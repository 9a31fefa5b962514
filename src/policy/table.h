// The compiled "now or later?" policy: optimal transmit distances d* on
// a dense 4-D grid over (d0, v, Mdata, ρ), served by multilinear
// interpolation in O(1). The grid idiom follows src/phy/per_table.h —
// values at knots are *exact* solver outputs, everything between is
// interpolated — but where the PER table fills lazily at query time,
// this table is compiled offline (policy::Compiler) and shipped as a
// file, because one knot costs an optimize() call, not an expression.
//
// Interpolating the *argmax* instead of the utility surface is what
// keeps the answers accurate: U is stationary at d* (∂U/∂d = 0), so a
// first-order error in the interpolated d* costs only second-order
// utility. The DecisionService re-evaluates U/Cdelay/δ exactly at the
// interpolated d*, so every served decomposition is self-consistent.
//
// On-disk format: versioned JSON with exp::Codec exact doubles (knots
// round-trip bit-identically) and an FNV-1a content checksum. load() is
// strict — version mismatch, missing fields, wrong knot counts,
// non-finite knots, or a checksum mismatch all throw TableError rather
// than serving a silently corrupted policy.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "io/json.h"

namespace skyferry::policy {

/// Thrown on any malformed, tampered, or version-mismatched table file.
struct TableError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One uniformly spaced axis, linear or log10. Knot i sits at
/// coord(lo) + i/(n-1) · (coord(hi) − coord(lo)) in coordinate space.
struct Axis {
  std::string name;
  double lo{0.0};
  double hi{0.0};
  int n{2};
  bool log10_spaced{false};

  [[nodiscard]] double knot(int i) const noexcept;
  /// True when x lies within [lo, hi] (closed, exact — no extrapolation).
  [[nodiscard]] bool contains(double x) const noexcept { return x >= lo && x <= hi; }
  /// Lower knot index and fractional offset for x ∈ [lo, hi].
  void locate(double x, int* i, double* frac) const noexcept;
};

/// The throughput model the table was compiled against (v1 supports the
/// paper's log2 fit only — the model every scenario preset uses).
struct TableModelSpec {
  double a{0.0};
  double b{0.0};
  double scale{1e6};
  double min_distance_m{20.0};
  std::string name;
};

class PolicyTable {
 public:
  static constexpr int kFormatVersion = 1;
  /// Axis order (and flattened-index order, first axis slowest) — the
  /// order Compiler::compile decodes its flat knot indices in.
  static constexpr std::array<const char*, 4> kAxisNames = {"d0_m", "speed_mps", "mdata_bytes",
                                                            "rho_per_m"};

  PolicyTable() = default;
  /// Axes in kAxisNames order; knot vectors sized to the grid product.
  /// Throws TableError if shapes disagree.
  PolicyTable(std::array<Axis, 4> axes, TableModelSpec model, double min_distance_m,
              core::OptimizeOptions compiled_with, std::vector<double> d_opt,
              std::vector<double> utility);

  [[nodiscard]] const std::array<Axis, 4>& axes() const noexcept { return axes_; }
  [[nodiscard]] const TableModelSpec& model() const noexcept { return model_; }
  [[nodiscard]] double min_distance_m() const noexcept { return min_distance_m_; }
  [[nodiscard]] const core::OptimizeOptions& compiled_with() const noexcept { return opt_; }
  [[nodiscard]] std::size_t knots() const noexcept { return d_opt_.size(); }

  /// Flattened knot index, first axis slowest:
  /// ((i0·N1 + i1)·N2 + i2)·N3 + i3.
  [[nodiscard]] std::size_t index(int i0, int i1, int i2, int i3) const noexcept;
  [[nodiscard]] double d_opt_at(std::size_t flat) const noexcept { return d_opt_[flat]; }
  [[nodiscard]] double utility_at(std::size_t flat) const noexcept { return utility_[flat]; }

  /// True when (d0, v, mdata, rho) lies inside every axis range, so a
  /// lookup interpolates instead of extrapolating.
  [[nodiscard]] bool covers(double d0_m, double speed_mps, double mdata_bytes,
                            double rho_per_m) const noexcept;

  /// The interpolation cell's d* candidates: the multilinear 16-corner
  /// blend plus the min/max corner d* among the contributing corners.
  /// The caller is expected to have checked covers(); out-of-range
  /// coordinates clamp to the boundary knots. A weight-zero corner
  /// (query exactly on a knot plane) is skipped, so knot queries
  /// reproduce the stored value exactly. Never allocates. In a cell
  /// where two utility modes tie (interior optimum vs an interval end)
  /// the blend lands in the valley between them, but `lo`/`hi` still
  /// carry each mode's own optimum — the serving path evaluates U
  /// exactly at all three and keeps the best.
  struct DOptCandidates {
    double blend{0.0};
    double lo{0.0};
    double hi{0.0};
  };
  [[nodiscard]] DOptCandidates lookup_d_opt_candidates(double d0_m, double speed_mps,
                                                       double mdata_bytes,
                                                       double rho_per_m) const noexcept;

  // ---- on-disk format -------------------------------------------------------
  [[nodiscard]] io::Json to_json() const;
  /// Strict decode; throws TableError on any structural, range, or
  /// checksum problem.
  [[nodiscard]] static PolicyTable from_json(const io::Json& j);
  /// tmp + fsync + rename, same crash-safety contract as exp::Checkpoint.
  void save_atomic(const std::string& path) const;
  [[nodiscard]] static PolicyTable load(const std::string& path);

  /// FNV-1a over the exact-encoded knot arrays — the integrity tag
  /// embedded in the file and re-derived on load.
  [[nodiscard]] std::string checksum() const;

 private:
  std::array<Axis, 4> axes_{};
  TableModelSpec model_{};
  double min_distance_m_{20.0};
  core::OptimizeOptions opt_{};
  std::vector<double> d_opt_;
  std::vector<double> utility_;
};

}  // namespace skyferry::policy
