#include "sim/rng.h"

#include <cmath>

namespace skyferry::sim {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// The reference inversion: CDF walk via the pmf recurrence
//   pmf(k+1) = pmf(k) * (n-k)/(k+1) * q/(1-q),
// starting from pmf(0) = exp(n*log1p(-q)). binomial_inverse_cdf must
// return exactly this walk's k, and falls back to it for any comparison
// its exp-free walk cannot settle. Precondition: 0 < q <= 0.5 (or NaN).
std::uint64_t inverse_cdf_exp(std::uint64_t n, double q, double u) noexcept {
  const double r = q / (1.0 - q);
  // exp(n*log1p(-q)) == (1-q)^n but ~2x cheaper than pow on glibc.
  double pmf = std::exp(static_cast<double>(n) * std::log1p(-q));
  double cdf = pmf;
  std::uint64_t k = 0;
  while (u >= cdf && k < n) {
    pmf *= r * static_cast<double>(n - k) / static_cast<double>(k + 1);
    cdf += pmf;
    ++k;
  }
  return k;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // Seed the four words via splitmix64 as recommended by the authors;
  // guards against an all-zero state.
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method for unbiased bounded ints.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::gaussian() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  // Box-Muller; u1 in (0,1] so log is finite.
  const double u1 = (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  spare_ = r * std::sin(kTwoPi * u2);
  has_spare_ = true;
  return r * std::cos(kTwoPi * u2);
}

double Rng::gaussian(double mean, double sigma) noexcept { return mean + sigma * gaussian(); }

double Rng::exponential(double lambda) noexcept {
  const double u = (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;  // (0,1]
  return -std::log(u) / lambda;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) return binomial_inverse_cdf(n, p, uniform());
  // Normal-tail fallback with continuity correction on the smaller
  // tail, clamped to [0,n].
  const bool flip = p > 0.5;
  const double q = flip ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * q;
  const double sd = std::sqrt(mean * (1.0 - q));
  const double draw = std::floor(mean + sd * gaussian() + 0.5);
  const double hi = static_cast<double>(n);
  const auto k = static_cast<std::uint64_t>(draw < 0.0 ? 0.0 : (draw > hi ? hi : draw));
  return flip ? n - k : k;
}

std::uint64_t binomial_inverse_cdf(std::uint64_t n, double p, double u) noexcept {
  // Work with the smaller tail so the inversion walk stays short and the
  // pmf recurrence stays well-conditioned.
  const bool flip = p > 0.5;
  const double q = flip ? 1.0 - p : p;
  const double r = q / (1.0 - q);
  // pmf(0) = (1-q)^n >= 2^-64 > 0 by square-and-multiply (at most six
  // squarings). It differs from the exp/log1p walk's pmf(0) by a few
  // hundred ulp at most, and so does every cdf(k) below; kBand is ~90000
  // ulp, so a comparison outside it is settled for both walks alike.
  double pmf = 1.0;
  double base = 1.0 - q;
  for (std::uint64_t e = n;; base *= base) {
    if (e & 1) pmf *= base;
    e >>= 1;
    if (e == 0) break;
  }
  constexpr double kBand = 1e-11;
  const double u_hi = u * (1.0 + kBand);
  const double u_lo = u * (1.0 - kBand);
  double cdf = pmf;
  std::uint64_t k = 0;
  while (k < n) {
    if (u_hi < cdf) break;  // u < cdf(k) for the exp/log1p walk too
    if (!(u_lo >= cdf)) {
      // Too close to call (or NaN p): re-decide the whole draw exactly.
      k = inverse_cdf_exp(n, q, u);
      break;
    }
    pmf *= r * static_cast<double>(n - k) / static_cast<double>(k + 1);
    cdf += pmf;
    ++k;
  }
  return flip ? n - k : k;
}

double Rng::rician_envelope(double k_factor) noexcept {
  // Complex gaussian with LoS component: normalize so E[r^2] = 1.
  // LoS amplitude nu and scatter sigma per component:
  //   nu^2 = K/(K+1),  2*sigma^2 = 1/(K+1).
  const double k = (k_factor < 0.0) ? 0.0 : k_factor;
  const double nu = std::sqrt(k / (k + 1.0));
  const double sigma = std::sqrt(1.0 / (2.0 * (k + 1.0)));
  const double i = nu + sigma * gaussian();
  const double q = sigma * gaussian();
  return std::sqrt(i * i + q * q);
}

std::uint64_t derive_seed(std::uint64_t master, std::string_view component) noexcept {
  // FNV-1a over the component name, mixed with the master seed.
  std::uint64_t h = 1469598103934665603ULL ^ master;
  for (char c : component) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  // Final avalanche so adjacent names give unrelated streams.
  std::uint64_t x = h;
  return splitmix64(x);
}

std::uint64_t fork(std::uint64_t master, std::uint64_t point, std::uint64_t trial) noexcept {
  // Three rounds of splitmix64 keyed by master, point and trial. Each
  // input fully avalanches before the next is folded in, so adjacent
  // (point, trial) indices yield unrelated seeds — rng_test checks the
  // first 1e4 draws of neighboring trial streams for overlap.
  std::uint64_t x = master ^ 0xa0761d6478bd642fULL;
  std::uint64_t s = splitmix64(x);
  x = s ^ point;
  s = splitmix64(x);
  x = s ^ trial;
  return splitmix64(x);
}

}  // namespace skyferry::sim
