#include "geo/trajectory.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace skyferry::geo {

void Trajectory::push(const TrajectorySample& s) {
  assert(samples_.empty() || s.t_s >= samples_.back().t_s);
  samples_.push_back(s);
}

double Trajectory::start_time() const noexcept { return samples_.empty() ? 0.0 : samples_.front().t_s; }
double Trajectory::end_time() const noexcept { return samples_.empty() ? 0.0 : samples_.back().t_s; }
double Trajectory::duration() const noexcept { return end_time() - start_time(); }

std::size_t Trajectory::lower_index(double t_s) const noexcept {
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), t_s,
                                   [](double t, const TrajectorySample& s) { return t < s.t_s; });
  if (it == samples_.begin()) return 0;
  return static_cast<std::size_t>(it - samples_.begin()) - 1;
}

Vec3 Trajectory::position_at(double t_s) const noexcept {
  assert(!samples_.empty());
  if (t_s <= samples_.front().t_s) return samples_.front().pos;
  if (t_s >= samples_.back().t_s) return samples_.back().pos;
  const std::size_t i = lower_index(t_s);
  const TrajectorySample& a = samples_[i];
  const TrajectorySample& b = samples_[i + 1];
  const double span = b.t_s - a.t_s;
  if (span <= 0.0) return a.pos;
  const double w = (t_s - a.t_s) / span;
  return a.pos + (b.pos - a.pos) * w;
}

double Trajectory::path_length() const noexcept {
  double len = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    len += distance(samples_[i - 1].pos, samples_[i].pos);
  }
  return len;
}

std::vector<GeoPoint> Trajectory::to_geo(const LocalFrame& frame) const {
  std::vector<GeoPoint> out;
  out.reserve(samples_.size());
  for (const TrajectorySample& s : samples_) out.push_back(frame.to_geo(s.pos));
  return out;
}

}  // namespace skyferry::geo
