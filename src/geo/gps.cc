#include "geo/gps.h"

#include <cmath>

namespace skyferry::geo {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) noexcept {
  // 53-bit mantissa uniform in (0,1]; never exactly 0 so log() is safe.
  return (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace

GpsReceiver::GpsReceiver(GpsNoiseConfig cfg, std::uint64_t seed) noexcept
    : cfg_(cfg), state_(seed ^ 0xa5a5a5a5deadbeefULL) {}

double GpsReceiver::gaussian() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  // Box-Muller transform.
  const double u1 = uniform01(state_);
  const double u2 = uniform01(state_);
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

Vec3 GpsReceiver::measure(const Vec3& true_pos, double dt_s) noexcept {
  // First-order Gauss-Markov: e' = a*e + sigma*sqrt(1-a^2)*w, with
  // a = exp(-dt/tau); the stationary distribution keeps 1-sigma = sigma.
  const double a = std::exp(-dt_s / cfg_.correlation_time_s);
  const double drive = std::sqrt(1.0 - a * a);
  err_.x = a * err_.x + cfg_.horizontal_sigma_m * drive * gaussian();
  err_.y = a * err_.y + cfg_.horizontal_sigma_m * drive * gaussian();
  err_.z = a * err_.z + cfg_.vertical_sigma_m * drive * gaussian();
  return true_pos + err_;
}

}  // namespace skyferry::geo
