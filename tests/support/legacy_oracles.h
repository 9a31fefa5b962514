// Verbatim copies of implementations that were replaced by faster ones,
// kept as exactness oracles: the replacement must reproduce their output
// bit for bit. Also the probe sets the oracle tests share between the
// fast and slow tiers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/delay.h"
#include "core/optimizer.h"
#include "core/throughput_model.h"
#include "core/utility.h"
#include "exp/supervisor.h"
#include "exp/sweep.h"
#include "net/arq.h"
#include "policy/compiler.h"
#include "sim/rng.h"
#include "uav/failure.h"

namespace skyferry::legacy {

/// io::json_number as it was: try %.15g, %.16g, %.17g and keep the first
/// that strtod parses back to v.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[64];
  for (int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Doubles for the json_number oracle: every power of two with both
/// neighbours and both signs (the only place %.16g can fail to round-trip
/// while the shortest form has 16 digits), the subnormal range, integers,
/// short decimals, printf ties, ±0 and the extremes — then `random_count`
/// seeded draws split between raw bit patterns and log-uniform values.
inline std::vector<double> json_number_probes(std::size_t random_count, std::uint64_t seed) {
  using lim = std::numeric_limits<double>;
  std::vector<double> v = {0.0,           -0.0,          lim::min(),   lim::denorm_min(),
                           lim::max(),    lim::lowest(), lim::epsilon(), 0.1,
                           1.0 / 3.0,     1e23,          9.007199254740993e15,
                           5e-324,        2.2250738585072009e-308,     1e-300,
                           lim::infinity(), lim::quiet_NaN()};
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double s : {1.0, -1.0}) {
      v.push_back(s * p);
      v.push_back(s * std::nextafter(p, 0.0));
      v.push_back(s * std::nextafter(p, lim::infinity()));
    }
  }
  for (std::uint64_t m = 1; m < 4096; ++m) v.push_back(std::bit_cast<double>(m));  // subnormals
  for (std::uint64_t m = 1; m < 4096; ++m)
    v.push_back(std::bit_cast<double>(m * 1099511627776ULL + 3));
  for (int i = -2000; i <= 2000; ++i) {
    v.push_back(i);                      // integers
    v.push_back(i + 0.5);                // halves: %g ties at low precision
    v.push_back(i * 0.001);              // short decimals
    v.push_back(i * 1e15 + 0.5);         // 16/17-digit halves
    v.push_back(std::ldexp(1.0, 53) + i);  // around 2^53
  }
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < random_count; ++i) {
    if (i % 2 == 0) {
      v.push_back(std::bit_cast<double>(rng.next_u64()));
    } else {
      const double mag = std::pow(10.0, rng.uniform(-320.0, 308.0));
      v.push_back(rng.bernoulli(0.5) ? mag : -mag);
    }
  }
  return v;
}

/// Compiler::compile as it was: the knot sweep on exp::Sweep, fanned out
/// by the experiment engine. Each knot writes its own pre-assigned slot.
inline policy::PolicyTable compile(const policy::CompilerConfig& cfg) {
  using policy::Axis;
  using policy::AxisSpec;
  using policy::PolicyTable;
  const auto knot_values = [](const AxisSpec& spec) {
    Axis ax{"", spec.lo, spec.hi, spec.n, spec.log10_spaced};
    std::vector<double> v(static_cast<std::size_t>(std::max(spec.n, 2)));
    for (int i = 0; i < static_cast<int>(v.size()); ++i)
      v[static_cast<std::size_t>(i)] = ax.knot(i);
    return v;
  };
  exp::Sweep sweep;
  sweep.axis(PolicyTable::kAxisNames[0], knot_values(cfg.d0));
  sweep.axis(PolicyTable::kAxisNames[1], knot_values(cfg.speed));
  sweep.axis(PolicyTable::kAxisNames[2], knot_values(cfg.mdata));
  sweep.axis(PolicyTable::kAxisNames[3], knot_values(cfg.rho));
  const std::vector<exp::Point> points = sweep.cartesian();

  exp::RunnerConfig rc;
  rc.threads = cfg.threads;
  rc.trials = 1;
  exp::SupervisorOptions so;
  so.fail_fast = true;
  std::vector<double> d_opt(points.size()), utility(points.size());
  exp::SupervisedRunner(rc, so).run(points, [&](const exp::Point& pt, std::uint64_t) {
    const core::PaperLogThroughput model(cfg.model.a, cfg.model.b, cfg.model.name,
                                         cfg.model.scale, cfg.model.min_distance_m);
    const uav::FailureModel failure(pt.at(PolicyTable::kAxisNames[3]));
    const core::DeliveryParams params{pt.at(PolicyTable::kAxisNames[0]),
                                      pt.at(PolicyTable::kAxisNames[1]),
                                      pt.at(PolicyTable::kAxisNames[2]), cfg.min_distance_m};
    const core::CommDelayModel delay(model, params);
    const core::UtilityFunction u(delay, failure);
    const core::OptimizeResult r = core::optimize(u, cfg.optimize);
    d_opt[pt.index] = r.d_opt_m;
    utility[pt.index] = r.utility;
    return 0;
  });
  std::array<Axis, 4> axes = {
      Axis{PolicyTable::kAxisNames[0], cfg.d0.lo, cfg.d0.hi, cfg.d0.n, cfg.d0.log10_spaced},
      Axis{PolicyTable::kAxisNames[1], cfg.speed.lo, cfg.speed.hi, cfg.speed.n,
           cfg.speed.log10_spaced},
      Axis{PolicyTable::kAxisNames[2], cfg.mdata.lo, cfg.mdata.hi, cfg.mdata.n,
           cfg.mdata.log10_spaced},
      Axis{PolicyTable::kAxisNames[3], cfg.rho.lo, cfg.rho.hi, cfg.rho.n, cfg.rho.log10_spaced},
  };
  return PolicyTable(std::move(axes), cfg.model, cfg.min_distance_m, cfg.optimize,
                     std::move(d_opt), std::move(utility));
}

/// Equal checksum and every knot bitwise equal.
inline void expect_same_table(const policy::PolicyTable& want, const policy::PolicyTable& got) {
  EXPECT_EQ(got.checksum(), want.checksum());
  ASSERT_EQ(got.knots(), want.knots());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < want.knots(); ++k) {
    if (std::bit_cast<std::uint64_t>(got.d_opt_at(k)) !=
            std::bit_cast<std::uint64_t>(want.d_opt_at(k)) ||
        std::bit_cast<std::uint64_t>(got.utility_at(k)) !=
            std::bit_cast<std::uint64_t>(want.utility_at(k))) {
      if (++mismatches <= 5) ADD_FAILURE() << "knot " << k << " differs";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// net::ArqSender as it was: every call scans the batch from sequence 0.
class ArqSender {
 public:
  using ArqConfig = net::ArqConfig;
  using ArqSenderState = net::ArqSenderState;
  using FlowId = net::FlowId;
  using Packet = net::Packet;
  using SelectiveAck = net::SelectiveAck;

  ArqSender(ArqConfig cfg, std::uint32_t total_packets, FlowId flow = 0) noexcept
      : cfg_(cfg), total_(total_packets), flow_(flow), state_(total_packets, State::kUnsent) {}

  std::uint32_t in_flight() const noexcept {
    std::uint32_t n = 0;
    for (State s : state_) n += (s == State::kInFlight) ? 1 : 0;
    return n;
  }

  std::optional<Packet> next_packet(double now_s) {
    if (complete()) return std::nullopt;
    if (in_flight() >= cfg_.window) return std::nullopt;

    auto make = [&](std::uint32_t seq, bool retx) {
      state_[seq] = State::kInFlight;
      ++transmissions_;
      if (retx) ++retransmissions_;
      Packet p;
      p.flow = flow_;
      p.seq = seq;
      p.payload_bytes = cfg_.datagram_bytes;
      p.created_t_s = now_s;
      return p;
    };

    // Gaps first (selective repeat).
    for (std::uint32_t s = 0; s < next_new_; ++s) {
      if (state_[s] == State::kNacked) return make(s, true);
    }
    if (next_new_ < total_) {
      const std::uint32_t s = next_new_++;
      return make(s, false);
    }
    return std::nullopt;
  }

  void on_ack(const SelectiveAck& ack) {
    const std::uint32_t cum = std::min(ack.cumulative, total_);
    for (std::uint32_t s = 0; s < cum; ++s) {
      if (state_[s] != State::kAcked) {
        state_[s] = State::kAcked;
        ++acked_count_;
      }
    }
    for (std::uint32_t i = 0; i < ack.window_bitmap.size(); ++i) {
      const std::uint32_t s = cum + i;
      if (s >= total_) break;
      if (ack.window_bitmap[i]) {
        if (state_[s] != State::kAcked) {
          state_[s] = State::kAcked;
          ++acked_count_;
        }
      } else if (state_[s] == State::kInFlight && s < next_new_) {
        // Reported missing: schedule a retransmission.
        state_[s] = State::kNacked;
      }
    }
  }

  bool complete() const noexcept { return acked_count_ == total_; }

  void on_timeout() noexcept {
    for (std::uint32_t s = 0; s < next_new_; ++s) {
      if (state_[s] == State::kInFlight) state_[s] = State::kNacked;
    }
  }

  ArqSenderState checkpoint() const {
    ArqSenderState st;
    st.total = total_;
    st.acked.resize(total_, false);
    for (std::uint32_t s = 0; s < total_; ++s) st.acked[s] = (state_[s] == State::kAcked);
    st.frontier = next_new_;
    st.transmissions = transmissions_;
    st.retransmissions = retransmissions_;
    return st;
  }

  static ArqSender resume(ArqConfig cfg, const ArqSenderState& st, FlowId flow = 0) {
    ArqSender s(cfg, st.total, flow);
    const std::uint32_t n = std::min<std::uint32_t>(st.total,
                                                    static_cast<std::uint32_t>(st.acked.size()));
    for (std::uint32_t i = 0; i < n; ++i) {
      if (st.acked[i]) {
        s.state_[i] = State::kAcked;
        ++s.acked_count_;
      }
    }
    // Unacked packets below the old send frontier were sent at least once
    // but never confirmed: retransmit them. Beyond the frontier stays fresh.
    s.next_new_ = std::min(st.frontier, st.total);
    for (std::uint32_t i = 0; i < s.next_new_; ++i) {
      if (s.state_[i] == State::kUnsent) s.state_[i] = State::kNacked;
    }
    s.transmissions_ = st.transmissions;
    s.retransmissions_ = st.retransmissions;
    return s;
  }

  std::uint64_t transmissions() const noexcept { return transmissions_; }
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }

 private:
  enum class State : std::uint8_t { kUnsent, kInFlight, kAcked, kNacked };

  ArqConfig cfg_;
  std::uint32_t total_;
  FlowId flow_;
  std::vector<State> state_;
  std::uint32_t next_new_{0};
  std::uint32_t acked_count_{0};
  std::uint64_t transmissions_{0};
  std::uint64_t retransmissions_{0};
};

/// core::optimize as it was: the exhaustive grid scan, then the
/// golden-section refinement, evaluating U at every grid point.
inline core::OptimizeResult optimize(const core::UtilityFunction& u,
                                     core::OptimizeOptions opt = {}) {
  const double lo = u.delay().params().min_distance_m;
  const double hi = u.delay().params().d0_m;
  double out_d = 0.0;
  int out_evals = 0;
  if (hi <= lo) {
    out_d = hi;
    out_evals = 1;
  } else {
    // Stage 1: coarse grid scan.
    const int n = std::max(opt.grid_points, 8);
    double best_u = -1.0;
    int best_i = 0;
    int evals = 0;
    for (int i = 0; i < n; ++i) {
      const double val = u(lo + (hi - lo) * i / (n - 1));
      ++evals;
      if (val > best_u) {
        best_u = val;
        best_i = i;
      }
    }
    const double best_d = lo + (hi - lo) * best_i / (n - 1);
    // Stage 2: golden-section refinement within the neighbors of the best
    // grid point.
    constexpr double kGoldenRatioInv = 0.6180339887498949;
    double a = lo + (hi - lo) * std::max(best_i - 1, 0) / (n - 1);
    double b = lo + (hi - lo) * std::min(best_i + 1, n - 1) / (n - 1);
    double x1 = b - kGoldenRatioInv * (b - a);
    double x2 = a + kGoldenRatioInv * (b - a);
    double f1 = u(x1);
    double f2 = u(x2);
    evals += 2;
    for (int i = 0; i < opt.max_refine_iters && (b - a) > opt.tolerance_m; ++i) {
      if (f1 < f2) {
        a = x1;
        x1 = x2;
        f1 = f2;
        x2 = a + kGoldenRatioInv * (b - a);
        f2 = u(x2);
      } else {
        b = x2;
        x2 = x1;
        f2 = f1;
        x1 = b - kGoldenRatioInv * (b - a);
        f1 = u(x1);
      }
      ++evals;
    }
    const double mid = 0.5 * (a + b);
    // Keep whichever of {grid best, refined mid} is actually better.
    const double refined = u(mid);
    ++evals;
    out_d = refined >= best_u ? mid : best_d;
    out_evals = evals;
  }
  core::OptimizeResult r;
  const core::UtilityPoint p = u.evaluate(out_d);
  r.d_opt_m = out_d;
  r.utility = p.utility;
  r.cdelay_s = p.cdelay_s;
  r.discount = p.discount;
  const double eps = 1e-6 * std::max(hi - lo, 1.0);
  if (out_d >= hi - eps) {
    r.boundary = core::Boundary::kTransmitNow;
  } else if (out_d <= lo + eps) {
    r.boundary = core::Boundary::kAtFloor;
  } else {
    r.boundary = core::Boundary::kInterior;
  }
  r.evaluations = out_evals;
  return r;
}

/// One seeded single-link decision for the optimizer oracle: a throughput
/// fit, a failure law and a delivery, plus the grid it is solved on.
struct OptimizeProbe {
  core::PaperLogThroughput model{core::PaperLogThroughput::airplane()};
  uav::FailureModel failure{1e-4};
  core::DeliveryParams params{};
  core::OptimizeOptions opt{};

  /// Whether optimize() may prune this probe: a fit that does not rise
  /// with distance on a grid of at most 256 points over a real interval.
  [[nodiscard]] bool prunable() const {
    return model.a() <= 0.0 && model.scale() >= 0.0 && params.speed_mps > 0.0 &&
           params.mdata_bytes >= 0.0 && params.d0_m > params.min_distance_m &&
           core::grid_size(opt) <= 256;
  }
};

/// Random probes over both paper fits (and a flat and a rising one), all
/// three failure laws, d0 21-3000 m, v 0.5-20 m/s, Mdata 1e4-1e9 B,
/// rho 1e-6-1e-1 /m (or 0) and grids of 8-300 points (half the default
/// 256). One probe in 64 is a denormal regime — Mdata ~1e307 with a
/// steep failure rate — where U has so few significant bits that
/// neighbouring grid points tie and the bound's slack rounds away.
inline OptimizeProbe optimize_probe(sim::Rng& rng) {
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  OptimizeProbe q;
  switch (rng.uniform_int(8)) {
    case 0: q.model = {0.0, 30.0, "flat"}; break;
    case 1: q.model = {1.5, 20.0, "rising"}; break;
    case 2: case 3: case 4: q.model = core::PaperLogThroughput::quadrocopter(); break;
    default: break;  // airplane
  }
  const auto law = static_cast<uav::FailureLaw>(rng.uniform_int(3));
  const double rho = rng.uniform_int(16) == 0 ? 0.0 : log_uniform(1e-6, 1e-1);
  q.failure = uav::FailureModel(rho, law, rng.uniform(0.5, 4.0));
  q.params = {rng.uniform(21.0, 3000.0), rng.uniform(0.5, 20.0), log_uniform(1e4, 1e9), 20.0};
  if (rng.uniform_int(64) == 0) {
    q.failure = uav::FailureModel(rng.uniform(0.05, 0.2));
    q.params.d0_m = rng.uniform(300.0, 900.0);
    q.params.mdata_bytes = rng.uniform(1e306, 2e307);
  }
  q.opt.grid_points = rng.uniform_int(2) == 0 ? 256 : 8 + static_cast<int>(rng.uniform_int(293));
  return q;
}

/// Tally of optimize_mismatches.
struct OptimizeOracleTally {
  std::size_t mismatches{0};
  std::size_t prunable{0};  ///< probes optimize() may prune
  std::size_t pruned{0};    ///< ... of which it evaluated fewer grid points
};

/// Solves `count` random probes with core::optimize and legacy::optimize
/// and compares every result field bit for bit (the first few
/// differences are reported).
inline OptimizeOracleTally optimize_mismatches(std::size_t count, std::uint64_t seed) {
  sim::Rng rng(seed);
  OptimizeOracleTally t;
  for (std::size_t k = 0; k < count; ++k) {
    const OptimizeProbe q = optimize_probe(rng);
    const core::CommDelayModel delay(q.model, q.params);
    const core::UtilityFunction u(delay, q.failure);
    const core::OptimizeResult want = legacy::optimize(u, q.opt);
    const core::OptimizeResult got = core::optimize(u, q.opt);
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const bool same = bits(got.d_opt_m) == bits(want.d_opt_m) &&
                      bits(got.utility) == bits(want.utility) &&
                      bits(got.cdelay_s) == bits(want.cdelay_s) &&
                      bits(got.discount) == bits(want.discount) &&
                      got.boundary == want.boundary && got.evaluations == want.evaluations;
    if (!same && ++t.mismatches <= 10) {
      ADD_FAILURE() << "probe " << k << " (" << q.model.name() << ", law "
                    << static_cast<int>(q.failure.law()) << ", rho " << q.failure.rho()
                    << ", d0 " << q.params.d0_m << ", v " << q.params.speed_mps << ", M "
                    << q.params.mdata_bytes << ", n " << q.opt.grid_points << std::hexfloat
                    << "): want d " << want.d_opt_m << " U " << want.utility << ", got d "
                    << got.d_opt_m << " U " << got.utility << std::defaultfloat;
    }
    if (q.prunable()) {
      ++t.prunable;
      if (got.grid_evaluated < core::grid_size(q.opt)) ++t.pruned;
    }
  }
  return t;
}

/// sim::Rng::binomial's n <= 64 branch as it was, as a function of its
/// one uniform u: pmf(0) = exp(n*log1p(-q)), then the pmf-recurrence
/// walk on the smaller tail. Precondition: 0 < n <= 64, p in (0, 1) or
/// NaN.
inline std::uint64_t binomial_inverse_cdf(std::uint64_t n, double p, double u) {
  // Work with the smaller tail so the inversion walk stays short and the
  // pmf recurrence stays well-conditioned.
  const bool flip = p > 0.5;
  const double q = flip ? 1.0 - p : p;
  std::uint64_t k = 0;
  // CDF inversion via the pmf recurrence
  //   pmf(k+1) = pmf(k) * (n-k)/(k+1) * q/(1-q).
  // One uniform draw per call; pmf(0) = (1-q)^n >= 2^-64 > 0, so the
  // walk always starts on a representable mass.
  const double r = q / (1.0 - q);
  // exp(n*log1p(-q)) == (1-q)^n but ~2x cheaper than pow on glibc.
  double pmf = std::exp(static_cast<double>(n) * std::log1p(-q));
  double cdf = pmf;
  while (u >= cdf && k < n) {
    pmf *= r * static_cast<double>(n - k) / static_cast<double>(k + 1);
    cdf += pmf;
    ++k;
  }
  return flip ? n - k : k;
}

/// sim::Rng::binomial as it was, drawing from the caller's stream.
inline std::uint64_t binomial(sim::Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) return binomial_inverse_cdf(n, p, rng.uniform());
  // Normal-tail fallback with continuity correction, clamped to [0,n].
  const bool flip = p > 0.5;
  const double q = flip ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * q;
  const double sd = std::sqrt(mean * (1.0 - q));
  const double draw = std::floor(mean + sd * rng.gaussian() + 0.5);
  const double hi = static_cast<double>(n);
  const auto k = static_cast<std::uint64_t>(draw < 0.0 ? 0.0 : (draw > hi ? hi : draw));
  return flip ? n - k : k;
}

/// The cdf values the walk above compares u against for (n, p): cdf(0)
/// .. cdf(n) on the smaller tail. A u equal to one of them (or one ulp
/// off) is where an inexact replacement would first pick another k.
inline std::vector<double> binomial_walk_cdf(std::uint64_t n, double p) {
  const double q = p > 0.5 ? 1.0 - p : p;
  const double r = q / (1.0 - q);
  double pmf = std::exp(static_cast<double>(n) * std::log1p(-q));
  std::vector<double> cdf{pmf};
  for (std::uint64_t k = 0; k < n; ++k) {
    pmf *= r * static_cast<double>(n - k) / static_cast<double>(k + 1);
    cdf.push_back(cdf.back() + pmf);
  }
  return cdf;
}

/// Random (n <= 64, p, u) probes of sim::binomial_inverse_cdf against
/// the walk above; returns the number of mismatches (the first few are
/// reported). p mixes uniform, tiny, near-one and near-half values; u
/// alternates between a real uniform() draw and a cdf value of the walk
/// nudged by up to four ulp either way.
inline std::size_t binomial_random_mismatches(std::size_t count, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t n = 1 + rng.uniform_int(64);
    double p = rng.uniform();
    switch (rng.uniform_int(5)) {
      case 0: p = std::pow(10.0, rng.uniform(-300.0, -1.0)); break;
      case 1: p = 1.0 - std::pow(10.0, rng.uniform(-16.0, -1.0)); break;
      case 2: p = 0.5 + rng.uniform(-1e-6, 1e-6); break;
      default: break;
    }
    if (p <= 0.0 || p >= 1.0) continue;
    double u = rng.uniform();
    if (i % 2 == 1) {
      const std::vector<double> cdf = binomial_walk_cdf(n, p);
      u = cdf[rng.uniform_int(cdf.size())];
      const int ulps = static_cast<int>(rng.uniform_int(9)) - 4;
      for (int s = 0; s < std::abs(ulps); ++s) u = std::nextafter(u, ulps < 0 ? 0.0 : 2.0);
    }
    const std::uint64_t want = binomial_inverse_cdf(n, p, u);
    const std::uint64_t got = sim::binomial_inverse_cdf(n, p, u);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "n=" << n << " p=" << std::hexfloat << p << " u=" << u << ": want "
                    << want << ", got " << got;
    }
  }
  return mismatches;
}

}  // namespace skyferry::legacy
