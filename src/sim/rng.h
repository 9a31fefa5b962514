// Deterministic random-number streams. Every stochastic component
// (fading, rate control, GPS noise, failure draws) pulls from its own
// named stream derived from one master seed, so figures regenerate
// bit-identically and components can be re-seeded independently.
#pragma once

#include <cstdint>
#include <string_view>

namespace skyferry::sim {

/// xoshiro256++ generator — fast, high-quality, tiny state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Raw 64 random bits.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (cached spare).
  double gaussian() noexcept;
  double gaussian(double mean, double sigma) noexcept;

  /// Exponential with rate lambda (mean 1/lambda). Precondition: lambda > 0.
  double exponential(double lambda) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Binomial(n, p) draw: the number of successes in n independent
  /// Bernoulli(p) trials, in one call. Exact CDF inversion for n <= 64
  /// (one uniform draw fed to binomial_inverse_cdf — this is the
  /// aggregate-sampling fast path of the link simulator, where n is the
  /// A-MPDU subframe count), a continuity-corrected normal tail fallback
  /// for larger n. p is clamped to [0, 1].
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  /// Magnitude of a Rician-fading envelope with K-factor (linear, not dB)
  /// normalized to unit mean *power* (E[r^2] = 1). K=0 degenerates to
  /// Rayleigh. Used by the PHY fading model.
  double rician_envelope(double k_factor) noexcept;

 private:
  std::uint64_t s_[4];
  bool has_spare_{false};
  double spare_{0.0};
};

/// The n <= 64 branch of Rng::binomial as a pure function of its one
/// uniform u in [0, 1): the smallest k with u < cdf(k), walked on the
/// smaller tail (q = min(p, 1 - p)) through the pmf recurrence and
/// flipped back (n when u lies above every cdf(k), 0 for NaN p).
/// pmf(0) = (1-q)^n comes from square-and-multiply, not exp/log1p; a
/// comparison that lands within a 1e-11 relative band of the cdf is
/// re-decided by the exp/log1p walk, so the returned k is exactly the
/// one that walk gives for the same u (DESIGN.md §7).
/// Precondition: 0 < n <= 64 and p in (0, 1) or NaN.
[[nodiscard]] std::uint64_t binomial_inverse_cdf(std::uint64_t n, double p, double u) noexcept;

/// Derive a child seed from a master seed and a component name, so that
/// e.g. "fading/link0" and "gps/uav1" draw independent streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master, std::string_view component) noexcept;

/// Derive the seed of trial `trial` at sweep point `point` from one
/// master seed. This is the experiment engine's seeding discipline:
/// every (point, trial) pair gets its own statistically independent
/// stream, computed from indices alone, so results are bit-identical no
/// matter how trials are scheduled across threads.
[[nodiscard]] std::uint64_t fork(std::uint64_t master, std::uint64_t point,
                                 std::uint64_t trial) noexcept;

}  // namespace skyferry::sim
