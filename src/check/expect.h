// Noise-aware comparators for validating stochastic experiment output
// against pinned expectations — the statistical-testing layer behind the
// golden paper-fidelity suite (ns-3 style: stochastic results are
// checked against tolerances and distributions, never exact floats).
//
//   Expect             scalar with absolute/relative/sigma tolerance
//   OrderingExpect     a pinned ranking of named alternatives
//   DistributionExpect KS against committed samples
//
// Every check returns a CheckResult instead of asserting, so the same
// comparators serve gtest assertions (EXPECT_TRUE(r.ok) << r.message),
// the golden_check binary, and scripts/golden_regress.sh.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace skyferry::check {

/// Outcome of one comparison: pass/fail plus a human-readable account
/// of what was compared (both sides, the margin, the verdict).
struct CheckResult {
  bool ok{false};
  std::string name;
  std::string message;
};

/// Combined tolerance: a comparison passes when |actual - expected| is
/// within max(abs, rel*|expected|, sigma*sd). All-zero means exact.
struct Tolerance {
  double abs{0.0};    ///< absolute margin
  double rel{0.0};    ///< relative margin (fraction of |expected|)
  double sigma{0.0};  ///< multiples of `sd`
  double sd{0.0};     ///< the noise scale `sigma` multiplies

  [[nodiscard]] static Tolerance exact() noexcept { return {}; }
  [[nodiscard]] static Tolerance absolute(double a) noexcept { return {a, 0.0, 0.0, 0.0}; }
  [[nodiscard]] static Tolerance relative(double r) noexcept { return {0.0, r, 0.0, 0.0}; }
  [[nodiscard]] static Tolerance sigmas(double k, double sd) noexcept {
    return {0.0, 0.0, k, sd};
  }

  /// The margin granted around `expected`.
  [[nodiscard]] double margin(double expected) const noexcept;
  [[nodiscard]] bool is_exact() const noexcept {
    return abs == 0.0 && rel == 0.0 && (sigma == 0.0 || sd == 0.0);
  }
};

/// Scalar expectation.
class Expect {
 public:
  Expect(std::string name, double expected, Tolerance tol = {})
      : name_(std::move(name)), expected_(expected), tol_(tol) {}

  [[nodiscard]] CheckResult check(double actual) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] double expected() const noexcept { return expected_; }
  [[nodiscard]] const Tolerance& tolerance() const noexcept { return tol_; }

 private:
  std::string name_;
  double expected_{0.0};
  Tolerance tol_;
};

/// A pinned ranking: the named alternatives must sort into exactly this
/// order. Scores are ranked ascending by default (first = smallest, the
/// winner for costs/delays); pass ascending=false for higher-is-better.
class OrderingExpect {
 public:
  OrderingExpect(std::string name, std::vector<std::string> expected_order)
      : name_(std::move(name)), expected_(std::move(expected_order)) {}

  /// Rank `scored` by value and compare against the expected order.
  [[nodiscard]] CheckResult check(std::vector<std::pair<std::string, double>> scored,
                                  bool ascending = true) const;

  /// Compare an already-ranked list of names.
  [[nodiscard]] CheckResult check_ranked(const std::vector<std::string>& actual) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::string>& expected_order() const noexcept {
    return expected_;
  }

 private:
  std::string name_;
  std::vector<std::string> expected_;
};

/// Distribution equality against committed reference samples.
class DistributionExpect {
 public:
  DistributionExpect(std::string name, std::vector<double> reference);

  /// Two-sample Kolmogorov-Smirnov test at significance `alpha`
  /// (asymptotic critical value): fails when the KS distance exceeds
  /// c(alpha) * sqrt((n+m)/(n*m)).
  [[nodiscard]] CheckResult ks(std::span<const double> sample, double alpha = 1e-3) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<double>& reference() const noexcept { return reference_; }

 private:
  std::string name_;
  std::vector<double> reference_;  // sorted
};

// ---- statistical helpers (exposed for tests and reuse) ----------------------

/// Two-sample KS critical distance at significance `alpha` for sample
/// sizes n and m (asymptotic: c(alpha)*sqrt((n+m)/(n*m))).
[[nodiscard]] double ks_critical(double alpha, std::size_t n, std::size_t m) noexcept;

}  // namespace skyferry::check
