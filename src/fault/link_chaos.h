// Seeded link-chaos layer: the fault axis for "the link you elected is
// not the link you get". The multi-connectivity measurement papers
// (PAPERS.md) show each backend family failing in its own way — bearer
// drops and RRC stalls on cellular, route flaps on mesh, weather and
// handover outages on LEO, interference bursts on 802.11n. This header
// models those as four per-backend seeded fault streams layered ON TOP
// of a backend's own stationary link::OutageProcess:
//
//   - *sustained blackouts*: Poisson-arriving down-epochs with
//     exponential holding times — long enough to starve a committed
//     burst, the trigger for mid-mission re-election;
//   - *rate-degradation epochs*: windows in which the effective data
//     rate is scaled by a factor in (0, 1] — the "bearer is up but
//     crawling" regime a blackout detector misses and a CUSUM catches;
//   - *session-setup failures*: Bernoulli attach/bearer failures drawn
//     once per setup attempt;
//   - *regional outage storms* (LinkStormConfig): fleet-wide windows
//     that knock out a seeded subset of spatial cells for every link at
//     once — correlated chaos no per-UAV stream can model.
//
// Consumers: link::GenericSession overlays a chaos stream on its outage
// walk, fault::MissionSim on its data link, and fleet::FleetEngine on
// every (mission, link) pair. The per-exchange accessors stay inline:
// the fleet sweep calls them once per burst round.
//
// Determinism contract (the whole point of *seeded* chaos): every
// stream is an alternating renewal process advanced by monotone queries
// from its own sim::Rng, so a (config, seed) pair fully determines the
// realization — independent of thread count, query granularity within a
// sweep step, and of every other stream. A disabled axis never draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace skyferry::fault {

/// One backend's chaos statistics. All axes default to off; a
/// default-constructed config is exactly "no chaos" and draws nothing.
struct LinkChaosConfig {
  /// Sustained blackouts: Poisson arrivals at this rate, each holding
  /// Exp(blackout_mean_s). 0 disables the axis.
  double blackout_rate_per_hour{0.0};
  double blackout_mean_s{0.0};
  /// Rate-degradation epochs: Poisson arrivals, Exp holding times,
  /// during which the effective rate is multiplied by
  /// degrade_rate_scale ∈ (0, 1]. rate 0 disables the axis.
  double degrade_rate_per_hour{0.0};
  double degrade_mean_s{0.0};
  double degrade_rate_scale{1.0};
  /// Per-attempt probability that a session setup (attach/bearer
  /// establishment) fails and must be retried. 0 disables the axis.
  double setup_fail_p{0.0};

  [[nodiscard]] bool any() const noexcept {
    return (blackout_rate_per_hour > 0.0 && blackout_mean_s > 0.0) ||
           (degrade_rate_per_hour > 0.0 && degrade_mean_s > 0.0 && degrade_rate_scale < 1.0) ||
           setup_fail_p > 0.0;
  }

  /// Throws std::invalid_argument on NaN/Inf, negative rates or means,
  /// a degrade scale outside (0, 1], or a setup probability outside
  /// [0, 1].
  void validate() const {
    auto req = [](bool ok, const char* what) {
      if (!ok) throw std::invalid_argument(std::string("LinkChaosConfig: ") + what);
    };
    auto fin_nonneg = [](double v) { return v == v && v >= 0.0 && v <= 1e18; };
    req(fin_nonneg(blackout_rate_per_hour), "blackout_rate_per_hour must be finite and >= 0");
    req(fin_nonneg(blackout_mean_s), "blackout_mean_s must be finite and >= 0");
    req(fin_nonneg(degrade_rate_per_hour), "degrade_rate_per_hour must be finite and >= 0");
    req(fin_nonneg(degrade_mean_s), "degrade_mean_s must be finite and >= 0");
    req(degrade_rate_scale == degrade_rate_scale && degrade_rate_scale > 0.0 &&
            degrade_rate_scale <= 1.0,
        "degrade_rate_scale must be in (0, 1]");
    req(setup_fail_p == setup_fail_p && setup_fail_p >= 0.0 && setup_fail_p <= 1.0,
        "setup_fail_p must be in [0, 1]");
  }
};

/// Regional outage storms: fleet-wide windows (Poisson arrivals, Exp
/// holding) during which a seeded `cell_hit_fraction` of spatial cells
/// lose EVERY link at once. Which cells a storm hits is a pure hash of
/// (storm salt, cell) — thread-safe, replayable, and correlated across
/// all UAVs sharing a cell.
struct LinkStormConfig {
  double rate_per_hour{0.0};
  double mean_s{0.0};
  double cell_hit_fraction{0.0};

  [[nodiscard]] bool any() const noexcept {
    return rate_per_hour > 0.0 && mean_s > 0.0 && cell_hit_fraction > 0.0;
  }

  void validate() const {
    auto req = [](bool ok, const char* what) {
      if (!ok) throw std::invalid_argument(std::string("LinkStormConfig: ") + what);
    };
    auto fin_nonneg = [](double v) { return v == v && v >= 0.0 && v <= 1e18; };
    req(fin_nonneg(rate_per_hour), "rate_per_hour must be finite and >= 0");
    req(fin_nonneg(mean_s), "mean_s must be finite and >= 0");
    req(cell_hit_fraction == cell_hit_fraction && cell_hit_fraction >= 0.0 &&
            cell_hit_fraction <= 1.0,
        "cell_hit_fraction must be in [0, 1]");
  }
};

/// The full chaos axis of a run: per-link configs (index-aligned with
/// the link::LinkSet; single-link consumers read link(0)), one storm
/// process shared by the fleet, and the master chaos seed. A
/// default-constructed plan is "no chaos" and costs nothing.
struct LinkFaultPlan {
  std::vector<LinkChaosConfig> links;
  LinkStormConfig storm{};
  std::uint64_t seed{0x5eedc4a05ULL};

  [[nodiscard]] bool any() const noexcept {
    if (storm.any()) return true;
    for (const LinkChaosConfig& c : links)
      if (c.any()) return true;
    return false;
  }

  /// Per-link config with a disabled-config fallback for indices past
  /// the configured list (a plan may cover fewer links than the set).
  [[nodiscard]] const LinkChaosConfig& link(std::size_t j) const noexcept {
    static const LinkChaosConfig kOff{};
    return j < links.size() ? links[j] : kOff;
  }

  void validate() const {
    for (const LinkChaosConfig& c : links) c.validate();
    storm.validate();
  }

  [[nodiscard]] static LinkFaultPlan none() { return {}; }

  /// A deliberately hostile plan over `n_links` backends: frequent long
  /// blackouts, deep degradation epochs, flaky session setup, and
  /// regional storms. The stress preset for chaos campaigns.
  [[nodiscard]] static LinkFaultPlan harsh(std::size_t n_links) {
    LinkFaultPlan p;
    p.links.resize(n_links);
    for (LinkChaosConfig& c : p.links) {
      c.blackout_rate_per_hour = 30.0;
      c.blackout_mean_s = 20.0;
      c.degrade_rate_per_hour = 20.0;
      c.degrade_mean_s = 60.0;
      c.degrade_rate_scale = 0.25;
      c.setup_fail_p = 0.2;
    }
    p.storm = {6.0, 60.0, 0.5};
    return p;
  }
};

namespace detail {

/// Alternating off/on renewal walker: quiet gaps ~ Exp(rate), active
/// epochs ~ Exp(1/mean). Starts quiet (chaos *arrives*; the stationary
/// baseline belongs to link::OutageProcess). Queries must be monotone
/// in t — the walker advances segment by segment and never rewinds.
class EpochWalker {
 public:
  EpochWalker(double rate_per_hour, double mean_len_s, std::uint64_t seed) noexcept
      : gap_lambda_(rate_per_hour / 3600.0),
        len_lambda_(mean_len_s > 0.0 ? 1.0 / mean_len_s : 0.0),
        rng_(seed) {
    if (enabled()) seg_end_ = rng_.exponential(gap_lambda_);
  }

  [[nodiscard]] bool enabled() const noexcept { return gap_lambda_ > 0.0 && len_lambda_ > 0.0; }

  /// Is an epoch active at t? (monotone t)
  [[nodiscard]] bool active(double t) {
    if (!enabled()) return false;
    advance(t);
    return active_;
  }
  /// End of the segment containing t (monotone t).
  [[nodiscard]] double segment_end_s(double t) {
    if (!enabled()) return std::numeric_limits<double>::infinity();
    advance(t);
    return seg_end_;
  }

 private:
  void advance(double t) {
    while (t >= seg_end_) {
      active_ = !active_;
      seg_end_ += rng_.exponential(active_ ? len_lambda_ : gap_lambda_);
    }
  }

  double gap_lambda_;
  double len_lambda_;
  sim::Rng rng_;
  double seg_end_{std::numeric_limits<double>::infinity()};
  bool active_{false};
};

/// SplitMix64 finisher — the pure cell-hit hash used by StormSchedule.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// One (mission, link) chaos realization: a blackout walker, a
/// degradation walker, and a setup-failure RNG, all forked from one
/// seed. Queries on the walkers must be monotone in t; the three
/// streams are independent, so a disabled axis never perturbs another.
class LinkChaosStream {
 public:
  LinkChaosStream(const LinkChaosConfig& cfg, std::uint64_t seed)
      : cfg_(cfg),
        blackout_(cfg.blackout_rate_per_hour, cfg.blackout_mean_s,
                  sim::derive_seed(seed, "chaos/blackout")),
        degrade_(cfg.degrade_rate_per_hour, cfg.degrade_mean_s,
                 sim::derive_seed(seed, "chaos/degrade")),
        setup_rng_(sim::derive_seed(seed, "chaos/setup")) {}

  [[nodiscard]] const LinkChaosConfig& config() const noexcept { return cfg_; }

  /// Is an injected blackout active at t? (monotone t)
  [[nodiscard]] bool blacked_out(double t) { return blackout_.active(t); }
  /// End of the blackout containing t (call only while blacked_out(t)).
  [[nodiscard]] double blackout_end_s(double t) { return blackout_.segment_end_s(t); }

  /// Effective rate multiplier at t: degrade_rate_scale inside a
  /// degradation epoch, 1 outside. (monotone t)
  [[nodiscard]] double rate_scale(double t) {
    return degrade_.active(t) ? cfg_.degrade_rate_scale : 1.0;
  }

  /// Draw one session-setup attempt; true = the attach failed. Never
  /// draws when the axis is disabled.
  [[nodiscard]] bool draw_setup_failure() {
    return cfg_.setup_fail_p > 0.0 && setup_rng_.bernoulli(cfg_.setup_fail_p);
  }

 private:
  LinkChaosConfig cfg_;
  detail::EpochWalker blackout_;
  detail::EpochWalker degrade_;
  sim::Rng setup_rng_;
};

/// The fleet-wide storm process. Storm *windows* are sampled serially
/// from one RNG (ensure_horizon, called once per sweep step before any
/// parallel work); which cells a window hits is the pure hash
/// mix64(salt ^ cell), so `storming()` is const and safe to call from
/// every worker thread concurrently.
class StormSchedule {
 public:
  StormSchedule(const LinkStormConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(sim::derive_seed(seed, "chaos/storm")) {
    if (enabled()) next_start_ = rng_.exponential(cfg_.rate_per_hour / 3600.0);
  }

  [[nodiscard]] bool enabled() const noexcept { return cfg_.any(); }

  /// Extend the sampled window list to cover queries in [from_s, to_s]
  /// and drop windows that ended before from_s. Serial only.
  void ensure_horizon(double from_s, double to_s) {
    if (!enabled()) return;
    while (next_start_ <= to_s) {
      const double len = rng_.exponential(1.0 / cfg_.mean_s);
      windows_.push_back({next_start_, next_start_ + len, rng_.next_u64()});
      next_start_ += rng_.exponential(cfg_.rate_per_hour / 3600.0);
    }
    std::size_t keep = 0;
    for (std::size_t k = 0; k < windows_.size(); ++k)
      if (windows_[k].end > from_s) windows_[keep++] = windows_[k];
    windows_.resize(keep);
  }

  /// Is cell (cx, cy) inside a storm at t? Const and thread-safe once
  /// ensure_horizon has covered t.
  [[nodiscard]] bool storming(double t, std::int64_t cx, std::int64_t cy) const noexcept {
    for (const Window& w : windows_)
      if (t >= w.start && t < w.end && hits(w.salt, cx, cy)) return true;
    return false;
  }

  /// Latest end among storms covering (t, cx, cy); t if none.
  [[nodiscard]] double storm_end_s(double t, std::int64_t cx, std::int64_t cy) const noexcept {
    double end = t;
    for (const Window& w : windows_)
      if (t >= w.start && t < w.end && hits(w.salt, cx, cy) && w.end > end) end = w.end;
    return end;
  }

 private:
  struct Window {
    double start;
    double end;
    std::uint64_t salt;
  };

  [[nodiscard]] bool hits(std::uint64_t salt, std::int64_t cx, std::int64_t cy) const noexcept {
    const std::uint64_t h = detail::mix64(
        salt ^ detail::mix64(static_cast<std::uint64_t>(cx) * 0x9e3779b97f4a7c15ULL ^
                             static_cast<std::uint64_t>(cy)));
    return static_cast<double>(h >> 11) * 0x1.0p-53 < cfg_.cell_hit_fraction;
  }

  LinkStormConfig cfg_;
  sim::Rng rng_;
  std::vector<Window> windows_;
  double next_start_{0.0};
};

}  // namespace skyferry::fault
