#include "check/expect.h"

#include <algorithm>
#include <cmath>

#include "io/format.h"
#include "stats/ecdf.h"

namespace skyferry::check {

namespace {

std::string num(double v) { return io::format_number(v); }

CheckResult pass(std::string name, std::string message) {
  return {true, std::move(name), std::move(message)};
}

CheckResult fail(std::string name, std::string message) {
  return {false, std::move(name), std::move(message)};
}

}  // namespace

double Tolerance::margin(double expected) const noexcept {
  return std::max({abs, rel * std::abs(expected), sigma * sd});
}

CheckResult Expect::check(double actual) const {
  if (!std::isfinite(actual)) {
    return fail(name_, "actual is not finite (expected " + num(expected_) + ")");
  }
  const double margin = tol_.margin(expected_);
  const double delta = std::abs(actual - expected_);
  const bool ok = tol_.is_exact() ? actual == expected_ : delta <= margin;
  std::string msg = "actual " + num(actual) + " vs expected " + num(expected_);
  if (tol_.is_exact()) {
    msg += " (exact)";
  } else {
    msg += " (|delta| " + num(delta) + " vs margin " + num(margin) + ")";
  }
  return ok ? pass(name_, std::move(msg)) : fail(name_, std::move(msg));
}

CheckResult OrderingExpect::check(std::vector<std::pair<std::string, double>> scored,
                                  bool ascending) const {
  std::stable_sort(scored.begin(), scored.end(), [&](const auto& a, const auto& b) {
    return ascending ? a.second < b.second : a.second > b.second;
  });
  std::vector<std::string> ranked;
  ranked.reserve(scored.size());
  for (auto& [label, value] : scored) ranked.push_back(std::move(label));
  return check_ranked(ranked);
}

CheckResult OrderingExpect::check_ranked(const std::vector<std::string>& actual) const {
  auto join = [](const std::vector<std::string>& v) {
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += " < ";
      s += v[i];
    }
    return s;
  };
  if (actual == expected_) return pass(name_, "order holds: " + join(actual));
  return fail(name_, "order flipped: expected [" + join(expected_) + "], got [" + join(actual) +
                         "]");
}

DistributionExpect::DistributionExpect(std::string name, std::vector<double> reference)
    : name_(std::move(name)), reference_(std::move(reference)) {
  std::erase_if(reference_, [](double v) { return !std::isfinite(v); });
  std::sort(reference_.begin(), reference_.end());
}

CheckResult DistributionExpect::ks(std::span<const double> sample, double alpha) const {
  if (reference_.empty() || sample.empty())
    return {false, name_, "KS test needs non-empty reference and sample"};
  const stats::Ecdf ref(reference_);
  const stats::Ecdf got(sample);
  const double d = ref.ks_distance(got);
  const double crit = ks_critical(alpha, reference_.size(), got.size());
  std::string msg = "KS distance " + num(d) + " vs critical " + num(crit) + " (alpha " +
                    num(alpha) + ", n_ref " + std::to_string(reference_.size()) + ", n " +
                    std::to_string(got.size()) + ")";
  return {d <= crit, name_, std::move(msg)};
}

double ks_critical(double alpha, std::size_t n, std::size_t m) noexcept {
  if (n == 0 || m == 0 || !(alpha > 0.0 && alpha < 1.0)) return std::nan("");
  const double c = std::sqrt(-0.5 * std::log(alpha / 2.0));
  const double nn = static_cast<double>(n);
  const double mm = static_cast<double>(m);
  return c * std::sqrt((nn + mm) / (nn * mm));
}

}  // namespace skyferry::check
