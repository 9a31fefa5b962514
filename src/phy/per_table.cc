#include "phy/per_table.h"

#include <cmath>

namespace skyferry::phy {
namespace {

// 31-node Gauss-Hermite rule (weight e^{-x^2}): nodes >= 0 and their
// weights; the rule is symmetric. E[f(mu + sigma*Z)] with Z ~ N(0,1) is
// sum_i w_i * f(mu + sigma*sqrt(2)*x_i) / sqrt(pi). 31 nodes resolve
// the PER waterfall (a sigmoid ~0.5 sigma wide in Z for the paper's
// jitter scales), holding the quadrature error under ~1e-4 where a
// 15-node rule drifts by ~1e-2 mid-transition.
constexpr int kGhHalfNodes = 16;
constexpr double kGhNode[kGhHalfNodes] = {
    0.0,
    0.395942736471423,
    0.792876976915309,
    1.191826998350046,
    1.593885860472140,
    2.000258548935639,
    2.412317705480420,
    2.831680453390205,
    3.260320732313541,
    3.700743403231470,
    4.156271755818145,
    4.631559506312860,
    5.133595577112381,
    5.673961444618588,
    6.275078704942860,
    6.995680123718540,
};
constexpr double kGhWeight[kGhHalfNodes] = {
    3.957785560986095e-01,
    3.387726578941079e-01,
    2.121327886687647e-01,
    9.671794816087061e-02,
    3.184723073130030e-02,
    7.482799914035202e-03,
    1.233683307306889e-03,
    1.395209039504708e-04,
    1.049860275767558e-05,
    5.043712558939770e-07,
    1.461198834491053e-08,
    2.352492003208629e-10,
    1.860373521452147e-12,
    5.899556498753863e-15,
    5.110609007927157e-18,
    4.618968394464187e-22,
};
constexpr double kSqrt2 = 1.414213562373095;
constexpr double kInvSqrtPi = 0.564189583547756;

}  // namespace

PerTable::PerTable(const ErrorModel& em, const McsInfo& m, int bits, double jitter_sigma_db) {
  const int n = static_cast<int>(std::ceil((kSnrMaxDb - kSnrMinDb) / kStepDb - 1e-9)) + 1;
  per_.resize(static_cast<std::size_t>(n));
  if (jitter_sigma_db > 0.0) {
    // Marginalized build: quadrature over a plain table of the analytic
    // model, not over the analytic model itself — and, since PER is
    // non-increasing in SNR, any knot whose whole quadrature window sits
    // in a saturated region is 0/1 without touching the quadrature.
    const PerTable plain(em, m, bits);
    const double reach = kSqrt2 * jitter_sigma_db * kGhNode[kGhHalfNodes - 1];
    for (int i = 0; i < n; ++i) {
      const double snr = knot_snr_db(i);
      double p;
      if (plain.per(snr - reach) <= 0.0) {
        p = 0.0;  // largest PER in the window is already 0
      } else if (plain.per(snr + reach) >= 1.0) {
        p = 1.0;  // smallest PER in the window is already 1
      } else {
        p = plain.marginal_per(snr, jitter_sigma_db);
      }
      per_[static_cast<std::size_t>(i)] = p;
    }
  } else {
    for (int i = 0; i < n; ++i) {
      per_[static_cast<std::size_t>(i)] = em.packet_error_rate(m, knot_snr_db(i), bits);
    }
  }
}

double PerTable::per(double snr_db) const noexcept {
  const double pos = (snr_db - kSnrMinDb) * (1.0 / kStepDb);
  if (pos <= 0.0) return per_.front();
  const auto last = static_cast<double>(per_.size() - 1);
  if (pos >= last) return per_.back();
  const auto i = static_cast<std::size_t>(pos);
  const double f = pos - static_cast<double>(i);
  if (f == 0.0) return per_[i];  // knots are exact, not just close
  return per_[i] + f * (per_[i + 1] - per_[i]);
}

double PerTable::marginal_per(double snr_db, double sigma_db) const noexcept {
  if (sigma_db <= 0.0) return per(snr_db);
  double acc = kGhWeight[0] * per(snr_db);
  for (int k = 1; k < kGhHalfNodes; ++k) {
    const double d = kSqrt2 * sigma_db * kGhNode[k];
    acc += kGhWeight[k] * (per(snr_db + d) + per(snr_db - d));
  }
  return acc * kInvSqrtPi;
}

const PerTable& PerTableCache::table(const McsInfo& m, int bits, double jitter_sigma_db) {
  const auto key = std::make_tuple(m.index, bits, jitter_sigma_db > 0.0 ? jitter_sigma_db : 0.0);
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    it = tables_.try_emplace(key, em_, m, bits, std::get<2>(key)).first;
  }
  return it->second;
}

}  // namespace skyferry::phy
