// Named parameter axes expanded into a flat grid of sweep points. A
// Sweep is the declarative half of an experiment: it says *where* to
// evaluate; the SupervisedRunner says how many seeded trials to fan out
// per point and on how many threads. Points carry a stable index so
// per-trial seeds (sim::fork(seed, point, trial)) and result slots are
// independent of execution order.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace skyferry::exp {

/// Thrown for malformed sweeps and points (duplicate/missing axis,
/// empty axis).
struct SweepError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// One grid point: its stable index in the expansion plus one value per
/// axis, in axis-declaration order.
struct Point {
  std::size_t index{0};
  std::vector<std::pair<std::string, double>> coords;

  /// Value of the named axis; throws SweepError if the axis is unknown.
  [[nodiscard]] double at(std::string_view axis) const;
  /// True if the point carries the named axis.
  [[nodiscard]] bool has(std::string_view axis) const noexcept;
  /// "rho=0.001 d=60" — for table rows and replay logs.
  [[nodiscard]] std::string label() const;
};

class Sweep {
 public:
  /// Append a named axis (fluent). Throws SweepError on an empty value
  /// list or a duplicate name.
  Sweep& axis(std::string name, std::vector<double> values);

  [[nodiscard]] std::size_t axes() const noexcept { return axes_.size(); }

  /// Cartesian product of all axes, first axis slowest. An empty sweep
  /// expands to a single axis-less point (index 0), so "no sweep, just N
  /// trials" is not a special case for the SupervisedRunner.
  [[nodiscard]] std::vector<Point> cartesian() const;

 private:
  struct AxisDef {
    std::string name;
    std::vector<double> values;
  };
  std::vector<AxisDef> axes_;
};

}  // namespace skyferry::exp
