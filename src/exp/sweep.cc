#include "exp/sweep.h"

#include "io/format.h"

namespace skyferry::exp {

double Point::at(std::string_view axis) const {
  for (const auto& [name, value] : coords)
    if (name == axis) return value;
  throw SweepError("sweep point has no axis named '" + std::string(axis) + "'");
}

bool Point::has(std::string_view axis) const noexcept {
  for (const auto& [name, value] : coords) {
    (void)value;
    if (name == axis) return true;
  }
  return false;
}

std::string Point::label() const {
  std::string out;
  for (const auto& [name, value] : coords) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += io::format_number(value);
  }
  return out;
}

Sweep& Sweep::axis(std::string name, std::vector<double> values) {
  if (values.empty()) throw SweepError("sweep axis '" + name + "' has no values");
  for (const auto& a : axes_)
    if (a.name == name) throw SweepError("duplicate sweep axis '" + name + "'");
  axes_.push_back({std::move(name), std::move(values)});
  return *this;
}

std::vector<Point> Sweep::cartesian() const {
  std::size_t total = 1;
  for (const auto& a : axes_) total *= a.values.size();

  std::vector<Point> points;
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Point p;
    p.index = i;
    p.coords.reserve(axes_.size());
    // First axis slowest: divide by the sizes of all later axes.
    std::size_t rest = total;
    std::size_t idx = i;
    for (const auto& a : axes_) {
      rest /= a.values.size();
      const std::size_t k = idx / rest;
      idx %= rest;
      p.coords.emplace_back(a.name, a.values[k]);
    }
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace skyferry::exp
