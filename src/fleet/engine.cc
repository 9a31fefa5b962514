#include "fleet/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <future>
#include <string>

#include "exp/thread_pool.h"
#include "mac/timing.h"

namespace skyferry::fleet {

namespace {
/// Fixed work-chunk size for every parallel sweep. Chunk boundaries
/// depend only on the swept list's length — never on the thread count —
/// and every chunk writes disjoint UAV rows, so results are
/// bit-identical for any FleetConfig::threads.
constexpr std::size_t kChunk = 256;

using Clock = std::chrono::steady_clock;
double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

/// All per-UAV state as parallel contiguous columns. One row = one
/// mission's UAV. Hot sweep loops touch only the columns they need.
struct FleetEngine::Soa {
  // Kinematics.
  std::vector<double> px, py, pz;        ///< position [m]
  std::vector<double> vx, vy, vz;        ///< velocity [m/s]
  std::vector<double> tx, ty, tz;        ///< transmit-point target [m]
  std::vector<double> speed;             ///< cruise speed [m/s]
  // Mission geometry & decision.
  std::vector<double> rx, ry, rz;        ///< receiver position [m]
  std::vector<double> d0;                ///< start distance to receiver [m]
  std::vector<double> d_star;            ///< chosen transmit distance [m]
  std::vector<double> utility;
  std::vector<std::uint8_t> backend;     ///< policy::Backend of the decision
  std::vector<double> rho;               ///< failure rate [1/m]
  std::vector<double> deadline;          ///< delivery deadline [s]
  std::vector<double> spawn_t;
  std::vector<double> fixed_target;      ///< >=0: bypass the decision service
  // Multi-link decisions (legacy path leaves these at -1 / 0 / null).
  std::vector<std::int32_t> burst_link;  ///< elected burst link (LinkSet index)
  std::vector<std::uint64_t> trickle;    ///< background bytes credited at arrival
  std::vector<double> session_setup;     ///< elected link's setup latency [s]
  /// Seeded outage realization of a non-wifi elected link (null when the
  /// link is always-up or the election went to wifi). Row-local state:
  /// only run_exchanges on row i touches it.
  std::vector<std::unique_ptr<link::OutageProcess>> outage;
  // Transfer progress.
  std::vector<std::uint64_t> total_bytes, delivered_bytes, by_deadline_bytes;
  std::vector<std::uint64_t> mpdus_att, mpdus_del;
  std::vector<double> tx_clock;          ///< per-UAV exchange clock [s]
  std::vector<double> arrived_t, completed_t;
  std::vector<double> battery;           ///< remaining endurance [s]
  std::vector<std::uint8_t> phase;       ///< fleet::Phase
  std::vector<std::uint8_t> in_cells;    ///< row sits in cell_keys_
  // Per-UAV stochastic state (independent streams; order-insensitive).
  std::vector<sim::Rng> rng;
  std::vector<phy::LinkChannel> channel;
  std::vector<mac::ArfRate> arf;
  // Link-chaos state (filled only when the chaos axis is on; row-local
  // like `outage`, so the parallel sweeps stay thread-count identical).
  std::vector<std::unique_ptr<fault::LinkChaosStream>> chaos;  ///< elected link's streams
  std::vector<double> down_since;        ///< continuous blackout start (-1: link usable)
  std::vector<double> degrade_cusum;     ///< CUSUM statistic over degradation evidence
  std::vector<std::uint8_t> setup_done;  ///< chaos attach succeeded at this transmit point
  std::vector<std::uint8_t> want_reelect;
  std::vector<std::int32_t> reelections;
  std::vector<std::uint8_t> stall_reason;  ///< mac::IncompleteReason of the latest stall
  std::vector<net::RetryBudget> rebudget;  ///< deadline-aware re-election budget
};

FleetEngine::FleetEngine(FleetConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      seed_(seed),
      model_(cfg.scenario.paper_throughput()),
      service_(model_),
      soa_(std::make_unique<Soa>()),
      tables_(cfg.channel.spatial_correlation),
      airtime_(cfg.timing, cfg.ampdu, cfg.mpdu, cfg.channel.width, cfg.channel.gi) {
  if (cfg_.threads != 1) pool_ = std::make_unique<exp::ThreadPool>(cfg_.threads);
  cfg_.link_chaos.validate();
  chaos_on_ = cfg_.link_chaos.any();
  if (cfg_.link_chaos.storm.any()) {
    storms_ = std::make_unique<fault::StormSchedule>(cfg_.link_chaos.storm,
                                                     cfg_.link_chaos.seed);
  }
  if (cfg_.links != nullptr && !cfg_.links->empty()) {
    service_.install_links(cfg_.links);
    link_is_wifi_.resize(cfg_.links->size());
    link_errors_.resize(cfg_.links->size());
    for (std::size_t j = 0; j < cfg_.links->size(); ++j) {
      const link::LinkBackend& bk = cfg_.links->backend(j);
      link_is_wifi_[j] = bk.kind() == link::BackendKind::kWifi80211n ? 1 : 0;
      if (!link_is_wifi_[j]) link_errors_[j].table = &bk.frame_table();
    }
    // Identity efficiency row for non-wifi transmitters: they do not
    // share the 802.11n channel, so they never pay DCF contention. A
    // one-station wifi cell computes the same all-ones row, so this
    // prepopulation is value-identical either way.
    std::array<double, phy::kNumMcs> ones{};
    ones.fill(1.0);
    eff_memo_.emplace_back(1, ones);
  }

  // Prefetch every PER table and fill the airtime memo up front so the
  // sweep loops are pure loads: no mutexes, no mac:: recomputation.
  for (int m = 0; m < phy::kNumMcs; ++m) {
    data_errors_[static_cast<std::size_t>(m)].table =
        &tables_.table(phy::mcs(m), cfg_.mpdu.mpdu_bits(), cfg_.per_mpdu_snr_jitter_db);
  }
  ba_errors_.table = &tables_.table(phy::mcs(0), mac::kBlockAckBits, 0.0);
  airtime_.fill();

  frame_airtime_s_.resize(phy::kNumMcs);
  for (int m = 0; m < phy::kNumMcs; ++m) {
    frame_airtime_s_[static_cast<std::size_t>(m)] =
        mac::ampdu_duration_s(cfg_.mpdu, phy::mcs(m), cfg_.channel.width, cfg_.channel.gi,
                              cfg_.ampdu.max_subframes);
  }
  ba_airtime_s_ = mac::block_ack_duration_s(cfg_.channel.width);
}

FleetEngine::~FleetEngine() = default;

void FleetEngine::install_policy_table(policy::PolicyTable table) {
  service_.install_table(std::move(table));
}

int FleetEngine::add_mission(const MissionSpec& spec) {
  const auto i = static_cast<std::uint32_t>(count_++);
  Soa& s = *soa_;
  const core::Scenario& sc = cfg_.scenario;
  const double speed = spec.speed_mps > 0.0 ? spec.speed_mps : sc.speed_mps;
  const double mdata = spec.mdata_bytes > 0.0 ? spec.mdata_bytes : sc.mdata_bytes;
  const double rho = spec.rho_per_m >= 0.0 ? spec.rho_per_m : sc.rho_per_m;

  s.px.push_back(spec.start_pos.x);
  s.py.push_back(spec.start_pos.y);
  s.pz.push_back(spec.start_pos.z);
  s.vx.push_back(0.0);
  s.vy.push_back(0.0);
  s.vz.push_back(0.0);
  // Target provisionally = start; the spawn-time decision moves it.
  s.tx.push_back(spec.start_pos.x);
  s.ty.push_back(spec.start_pos.y);
  s.tz.push_back(spec.start_pos.z);
  s.speed.push_back(speed);
  s.rx.push_back(spec.receiver_pos.x);
  s.ry.push_back(spec.receiver_pos.y);
  s.rz.push_back(spec.receiver_pos.z);
  s.d0.push_back(geo::distance(spec.start_pos, spec.receiver_pos));
  s.d_star.push_back(0.0);
  s.utility.push_back(0.0);
  s.backend.push_back(static_cast<std::uint8_t>(policy::Backend::kExact));
  s.rho.push_back(rho);
  s.deadline.push_back(spec.deadline_s);
  s.spawn_t.push_back(spec.spawn_t_s);
  s.fixed_target.push_back(spec.fixed_target_distance_m);
  s.burst_link.push_back(-1);
  s.trickle.push_back(0);
  s.session_setup.push_back(0.0);
  s.outage.emplace_back(nullptr);
  s.total_bytes.push_back(static_cast<std::uint64_t>(mdata));
  s.delivered_bytes.push_back(0);
  s.by_deadline_bytes.push_back(0);
  s.mpdus_att.push_back(0);
  s.mpdus_del.push_back(0);
  s.tx_clock.push_back(spec.spawn_t_s);
  s.arrived_t.push_back(0.0);
  s.completed_t.push_back(0.0);
  s.battery.push_back(cfg_.battery_autonomy_s);
  s.phase.push_back(static_cast<std::uint8_t>(Phase::kFerry));
  s.in_cells.push_back(0);
  s.chaos.emplace_back(nullptr);
  s.down_since.push_back(-1.0);
  s.degrade_cusum.push_back(0.0);
  s.setup_done.push_back(0);
  s.want_reelect.push_back(0);
  s.reelections.push_back(0);
  s.stall_reason.push_back(static_cast<std::uint8_t>(mac::IncompleteReason::kNone));
  s.rebudget.emplace_back();
  s.rng.emplace_back(sim::fork(seed_, i, 0));
  s.channel.emplace_back(cfg_.channel,
                         sim::derive_seed(seed_, "fleet/ch/" + std::to_string(i)));
  s.arf.emplace_back(mac::ArfConfig{}, cfg_.channel.width, cfg_.channel.gi);

  sim_.schedule_at(spec.spawn_t_s, [this, i] { spawn(i); });
  return static_cast<int>(i);
}

void FleetEngine::spawn(std::uint32_t i) { pending_decisions_.push_back(i); }

void FleetEngine::decide_pending() {
  if (pending_decisions_.empty()) return;
  Soa& s = *soa_;

  // Batch every decision-service mission into one decide() span; fixed-
  // target missions bypass the service entirely. With a link set
  // installed the same batch routes through decide_multilink — joint
  // (link, d) election plus the trickle/burst split per mission.
  const bool multilink = cfg_.links != nullptr && !cfg_.links->empty();
  thread_local std::vector<policy::Query> queries;
  thread_local std::vector<policy::Decision> decisions;
  thread_local std::vector<policy::MultiLinkDecision> ml_decisions;
  thread_local std::vector<std::uint32_t> queried;
  queries.clear();
  decisions.clear();
  ml_decisions.clear();
  queried.clear();
  for (const std::uint32_t i : pending_decisions_) {
    if (s.fixed_target[i] >= 0.0) continue;
    policy::Query q;
    q.d0_m = s.d0[i];
    q.speed_mps = s.speed[i];
    q.mdata_bytes = static_cast<double>(s.total_bytes[i]);
    q.min_distance_m = cfg_.scenario.min_distance_m;
    q.rho_per_m = s.rho[i];
    queries.push_back(q);
    queried.push_back(i);
  }
  if (!queries.empty()) {
    if (multilink) {
      ml_decisions.resize(queries.size());
      service_.decide_multilink(queries, ml_decisions);
    } else {
      decisions.resize(queries.size());
      service_.decide(queries, decisions);
    }
  }

  std::size_t qi = 0;
  for (const std::uint32_t i : pending_decisions_) {
    double d_star;
    if (s.fixed_target[i] >= 0.0) {
      d_star = std::min(s.fixed_target[i], s.d0[i]);
    } else if (multilink) {
      const policy::MultiLinkDecision& dec = ml_decisions[qi++];
      d_star = std::clamp(dec.decision.d_opt_m, 0.0, s.d0[i]);
      s.utility[i] = dec.decision.utility;
      s.backend[i] = static_cast<std::uint8_t>(dec.decision.backend);
      s.burst_link[i] = dec.burst_link;
      // The background trickle is credited the moment the UAV lands on
      // its transmit point (the split already assumed the ferry window).
      s.trickle[i] = std::min(
          s.total_bytes[i],
          static_cast<std::uint64_t>(std::max(dec.trickle_bytes, 0.0)));
      // A non-wifi election bursts through the backend's own ARQ loop:
      // pay its session setup at arrival and realize its outage process
      // (seeded per mission, so transfers stay thread-count identical).
      if (dec.burst_link >= 0 && !link_is_wifi_[static_cast<std::size_t>(dec.burst_link)]) {
        const link::LinkBackendConfig& lc =
            cfg_.links->backend(static_cast<std::size_t>(dec.burst_link)).config();
        s.session_setup[i] = lc.session_setup_s;
        if (!lc.outage.always_up()) {
          s.outage[i] = std::make_unique<link::OutageProcess>(
              lc.outage, sim::derive_seed(seed_, "fleet/outage/" + std::to_string(i)));
        }
      }
    } else {
      const policy::Decision& dec = decisions[qi++];
      d_star = std::clamp(dec.d_opt_m, 0.0, s.d0[i]);
      s.utility[i] = dec.utility;
      s.backend[i] = static_cast<std::uint8_t>(dec.backend);
    }
    s.d_star[i] = d_star;
    // Transmit point: on the start->receiver line, d_star short of the
    // receiver. A zero-length leg transmits from the spawn point.
    if (s.d0[i] > 0.0) {
      const double f = d_star / s.d0[i];
      s.tx[i] = s.rx[i] + (s.px[i] - s.rx[i]) * f;
      s.ty[i] = s.ry[i] + (s.py[i] - s.ry[i]) * f;
      s.tz[i] = s.rz[i] + (s.pz[i] - s.rz[i]) * f;
    }
    // The paper's failure model: distance-to-failure ~ Exp(rho), drawn
    // once at spawn. Only a crash inside the ferry leg matters; the
    // (rare) event rides the discrete simulator, not the sweep loops.
    if (s.rho[i] > 0.0 && s.speed[i] > 0.0) {
      const double ferry_m = s.d0[i] - d_star;
      const double fail_m = s.rng[i].exponential(s.rho[i]);
      if (fail_m < ferry_m) {
        sim_.schedule_at(s.spawn_t[i] + fail_m / s.speed[i], [this, i] {
          Soa& soa = *soa_;
          if (soa.phase[i] == static_cast<std::uint8_t>(Phase::kFerry)) {
            soa.phase[i] = static_cast<std::uint8_t>(Phase::kFailed);
            soa.vx[i] = soa.vy[i] = soa.vz[i] = 0.0;
          }
        });
      }
    }
    // Realize the elected link's chaos streams (its own seed axis, so
    // chaos never perturbs the mission/frame RNG streams) and arm the
    // deadline-aware re-election budget.
    if (chaos_on_) {
      const auto jl = static_cast<std::size_t>(std::max(s.burst_link[i], std::int32_t{0}));
      s.chaos[i] = std::make_unique<fault::LinkChaosStream>(
          cfg_.link_chaos.link(jl),
          sim::derive_seed(cfg_.link_chaos.seed, "fleet/chaos/" + std::to_string(i) + "/" +
                                                    std::to_string(jl) + "/r0"));
      if (cfg_.reelection.enabled) {
        net::RetryBudgetConfig rb = cfg_.reelection.retry_budget;
        rb.deadline_s = std::min(rb.deadline_s, s.deadline[i]);
        s.rebudget[i] = net::RetryBudget(rb);
      }
    }
    ferry_rows_.push_back(i);
  }
  pending_decisions_.clear();
}

// Multi-link missions ship the background-trickle bytes during the
// ferry leg; the credit lands atomically (from the fleet's point of
// view) at arrival. Touches only row i, so the kinematics arrival site
// may call it from inside parallel chunks. A mission whose trickle
// covers the whole batch completes on the spot — the arrival site
// already raised tx_set_dirty_, and the ferry compaction hands only
// rows still in kTransmit to the transmit set.
void FleetEngine::credit_trickle(std::uint32_t i) {
  Soa& s = *soa_;
  const std::uint64_t credit =
      std::min(s.trickle[i], s.total_bytes[i] - s.delivered_bytes[i]);
  s.delivered_bytes[i] += credit;
  if (s.arrived_t[i] <= s.deadline[i]) s.by_deadline_bytes[i] = s.delivered_bytes[i];
  if (s.delivered_bytes[i] >= s.total_bytes[i]) {
    s.phase[i] = static_cast<std::uint8_t>(Phase::kDone);
    s.completed_t[i] = s.arrived_t[i];
  }
}

template <class Fn>
void FleetEngine::parallel_for(std::size_t n, const Fn& fn) {
  if (!pool_ || n <= kChunk) {
    fn(0, n);
    return;
  }
  thread_local std::vector<std::future<void>> futs;
  futs.clear();
  for (std::size_t b = 0; b < n; b += kChunk) {
    const std::size_t e = std::min(b + kChunk, n);
    futs.push_back(pool_->submit([&fn, b, e] { fn(b, e); }));
  }
  for (auto& f : futs) f.get();
}

void FleetEngine::step_kinematics(double t0) {
  Soa& s = *soa_;
  const double dt = cfg_.dt_s;
  const auto kFerryU8 = static_cast<std::uint8_t>(Phase::kFerry);
  const auto kTransmitU8 = static_cast<std::uint8_t>(Phase::kTransmit);

  // Endurance drain (skipped entirely for the default infinite battery).
  const bool drain = std::isfinite(cfg_.battery_autonomy_s);
  const auto drain_battery = [&](std::uint32_t i) {
    if (s.phase[i] != kFerryU8 && s.phase[i] != kTransmitU8) return;
    s.battery[i] -= dt;
    if (s.battery[i] < 0.0) {
      s.phase[i] = static_cast<std::uint8_t>(Phase::kFailed);
      s.vx[i] = s.vy[i] = s.vz[i] = 0.0;
      tx_set_dirty_.store(true, std::memory_order_relaxed);
    }
  };

  // Fly every listed row still in kFerry (a crash event may have failed
  // one since the last step), then drain its battery: the same per-row
  // sequence as a kinematics pass followed by a battery pass, and every
  // write is row-local, so the list order and the chunking never show.
  parallel_for(ferry_rows_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
      const std::uint32_t i = ferry_rows_[r];
      if (s.phase[i] == kFerryU8) {
        const double dx = s.tx[i] - s.px[i];
        const double dy = s.ty[i] - s.py[i];
        const double dz = s.tz[i] - s.pz[i];
        const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
        if (dist <= s.speed[i] * dt) {
          s.arrived_t[i] = t0 + (s.speed[i] > 0.0 ? dist / s.speed[i] : 0.0);
          s.px[i] = s.tx[i];
          s.py[i] = s.ty[i];
          s.pz[i] = s.tz[i];
          s.vx[i] = s.vy[i] = s.vz[i] = 0.0;
          s.phase[i] = kTransmitU8;
          // +0.0 on the wifi/legacy paths — bit-identical; a non-wifi
          // burst pays its session setup before the first ARQ round.
          s.tx_clock[i] = s.arrived_t[i] + s.session_setup[i];
          tx_set_dirty_.store(true, std::memory_order_relaxed);
          if (s.trickle[i] > 0) credit_trickle(i);
        } else {
          const double k = s.speed[i] / dist;
          s.vx[i] = dx * k;
          s.vy[i] = dy * k;
          s.vz[i] = dz * k;
          s.px[i] += s.vx[i] * dt;
          s.py[i] += s.vy[i] * dt;
          s.pz[i] += s.vz[i] * dt;
        }
      }
      if (drain) drain_battery(i);
    }
  });
  // The transmitters that did not land this step. Disjoint from
  // ferry_rows_, so each live row drains once.
  if (drain) {
    parallel_for(tx_rows_.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t r = b; r < e; ++r) drain_battery(tx_rows_[r]);
    });
  }

  // Keep the rows still flying; hand this step's arrivals that are still
  // transmitting (not completed on their trickle credit, not failed) to
  // the transmit-set rebuild.
  std::size_t kept = 0;
  for (const std::uint32_t i : ferry_rows_) {
    if (s.phase[i] == kFerryU8) {
      ferry_rows_[kept++] = i;
    } else if (s.phase[i] == kTransmitU8) {
      tx_joiners_.push_back(i);
    }
  }
  ferry_rows_.resize(kept);
}

bool FleetEngine::step_transfers(double t0) {
  Soa& s = *soa_;
  const auto kTransmitU8 = static_cast<std::uint8_t>(Phase::kTransmit);

  // The transmit set is stable between phase transitions (transmitters
  // hover at their d* points), so the bucketing + admission below is
  // skipped entirely until something arrives, completes or fails. The
  // maximize-buffer policy re-ranks on live backlogs, so a contended
  // cell forces a re-selection every sweep under it.
  const bool rebuild =
      tx_set_dirty_.load(std::memory_order_relaxed) ||
      (winners_contended_ && cfg_.policy == SchedulerPolicy::kMaximizeBuffer);
  if (!rebuild) {
    // Idle-skip: exchanges are contiguous-airtime, so each winner's
    // clock tells exactly when its next exchange starts. If the earliest
    // one lies beyond this sweep's window (contention-stretched
    // exchanges can span hundreds of sweeps) there is nothing to
    // simulate.
    if (winners_.empty() || t0 + cfg_.dt_s <= next_fire_s_) return false;
    run_winners(t0);
    return true;
  }
  tx_set_dirty_.store(false, std::memory_order_relaxed);

  // 1. Bring the transmitting rows up to date: drop the rows that left
  //    kTransmit and merge this step's sorted arrivals, so tx_rows_ is
  //    again every transmitting row in ascending order — the rows, and
  //    the order, of a scan over all rows.
  std::size_t live = 0;
  for (const std::uint32_t i : tx_rows_) {
    if (s.phase[i] == kTransmitU8) tx_rows_[live++] = i;
  }
  tx_rows_.resize(live);
  if (!tx_joiners_.empty()) {
    std::sort(tx_joiners_.begin(), tx_joiners_.end());
    tx_rows_.insert(tx_rows_.end(), tx_joiners_.begin(), tx_joiners_.end());
    std::inplace_merge(tx_rows_.begin(), tx_rows_.end() - tx_joiners_.size(), tx_rows_.end());
    tx_joiners_.clear();
  }

  //    Then the set of wifi transmitters. cell_keys_ stays
  //    sorted by (cell key, row) between rebuilds, and a row's key is
  //    fixed while it stays in kTransmit: only kFerry rows move, an
  //    in-place retarget keeps the position, and a closer one sends the
  //    row back to kFerry and out of the set. So a rebuild drops the
  //    rows that left (or switched to a non-wifi link), sorts only the
  //    rows that joined, and merges them in — the exact sequence a full
  //    re-bucket and sort would give. A non-wifi burst election does not
  //    occupy the 802.11n channel: it skips cell contention and is
  //    admitted outright with the identity efficiency row (index 0,
  //    prepopulated in the ctor).
  winners_.clear();
  winner_eff_row_.clear();
  winners_contended_ = false;
  const auto on_wifi = [&](std::uint32_t i) {
    const std::int32_t bl = s.burst_link[i];
    return bl < 0 || link_is_wifi_[static_cast<std::size_t>(bl)] != 0;
  };
  std::size_t kept = 0;
  for (const auto& kr : cell_keys_) {
    const std::uint32_t i = kr.second;
    if (s.in_cells[i] && s.phase[i] == kTransmitU8 && on_wifi(i)) {
      cell_keys_[kept++] = kr;
    } else {
      s.in_cells[i] = 0;
    }
  }
  cell_keys_.resize(kept);
  cell_joiners_.clear();
  const double inv_cell = 1.0 / std::max(cfg_.cell_size_m, 1e-6);
  for (const std::uint32_t i : tx_rows_) {
    if (!on_wifi(i)) {
      winners_.push_back(i);
      winner_eff_row_.push_back(0);
      continue;
    }
    if (s.in_cells[i]) continue;
    s.in_cells[i] = 1;
    const auto cx = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(std::floor(s.px[i] * inv_cell)));
    const auto cy = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(std::floor(s.py[i] * inv_cell)));
    cell_joiners_.emplace_back((static_cast<std::uint64_t>(cx) << 32) | cy, i);
  }
  if (!cell_joiners_.empty()) {
    std::sort(cell_joiners_.begin(), cell_joiners_.end());
    cell_keys_.insert(cell_keys_.end(), cell_joiners_.begin(), cell_joiners_.end());
    std::inplace_merge(cell_keys_.begin(), cell_keys_.end() - cell_joiners_.size(),
                       cell_keys_.end());
  }
  if (cell_keys_.empty() && winners_.empty()) return false;

  // 2. Per cell: admit up to max_tx_per_cell transmitters (the
  //    scheduler's "now or later?" under contention) and attach the
  //    cell's Bianchi efficiency row.
  std::size_t g0 = 0;
  while (g0 < cell_keys_.size()) {
    std::size_t g1 = g0 + 1;
    while (g1 < cell_keys_.size() && cell_keys_[g1].first == cell_keys_[g0].first) ++g1;
    const auto gsize = static_cast<int>(g1 - g0);
    const int n_tx = std::min(gsize, std::max(cfg_.max_tx_per_cell, 1));

    // Efficiency row for n_tx stations, memoized across sweeps.
    std::uint32_t row = 0;
    for (; row < eff_memo_.size(); ++row) {
      if (eff_memo_[row].first == n_tx) break;
    }
    if (row == eff_memo_.size()) {
      std::array<double, phy::kNumMcs> eff{};
      for (int m = 0; m < phy::kNumMcs; ++m) {
        eff[static_cast<std::size_t>(m)] =
            n_tx > 1 ? mac::analyze_contention(n_tx, cfg_.timing,
                                               frame_airtime_s_[static_cast<std::size_t>(m)],
                                               ba_airtime_s_)
                           .efficiency_vs_single
                     : 1.0;
      }
      eff_memo_.emplace_back(n_tx, eff);
    }

    if (gsize <= cfg_.max_tx_per_cell) {
      for (std::size_t g = g0; g < g1; ++g) winners_.push_back(cell_keys_[g].second);
    } else {
      winners_contended_ = true;
      cell_candidates_.clear();
      for (std::size_t g = g0; g < g1; ++g) {
        const std::uint32_t i = cell_keys_[g].second;
        cell_candidates_.push_back(TxCandidate{i, s.arrived_t[i], s.deadline[i],
                                               s.total_bytes[i] - s.delivered_bytes[i]});
      }
      select_transmitters(cfg_.policy, cell_candidates_, cfg_.max_tx_per_cell, winners_);
    }
    winner_eff_row_.resize(winners_.size(), row);
    g0 = g1;
  }
  run_winners(t0);
  return true;
}

// Run every admitted transmitter's exchange micro-loop. Disjoint rows,
// per-UAV RNG/channel/ARF state: embarrassingly parallel. Each chunk
// records the earliest next exchange-start it saw into its own
// chunk_min_ slot (fixed kChunk boundaries, so the serial reduction is
// thread-count independent); the reduced watermark drives the idle-skip.
void FleetEngine::run_winners(double t0) {
  const Clock::time_point c0 = Clock::now();
  const double t1 = t0 + cfg_.dt_s;
  const std::size_t n = winners_.size();
  chunk_min_.assign(std::max<std::size_t>((n + kChunk - 1) / kChunk, 1),
                    std::numeric_limits<double>::infinity());
  parallel_for(n, [&](std::size_t b, std::size_t e) {
    double low = std::numeric_limits<double>::infinity();
    for (std::size_t w = b; w < e; ++w) {
      low = std::min(low, run_exchanges(winners_[w], winner_eff_row_[w], t1));
    }
    chunk_min_[b / kChunk] = low;
  });
  next_fire_s_ = *std::min_element(chunk_min_.begin(), chunk_min_.end());
  phase_s_.exchanges += seconds(c0, Clock::now());
}

// Exchanges occupy contiguous airtime, so the clock alone decides
// eligibility: run every round that starts inside this sweep's window.
// The 802.11n path is the same grammar as mac::LinkSimulator on the
// kAggregate fast path, plus DCF contention and the MCS-0 stall backoff;
// the burst path is GenericSession's frame-burst round on row-local
// state. The UAV hovers at d*, so a burst link's rate is a constant of
// the mission. All state is row-local (per-UAV RNG, channel, ARF and
// outage stream), which keeps the sweep thread-count bit-identical.
double FleetEngine::run_exchanges(std::uint32_t i, std::uint32_t eff_row, double t1) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  Soa& s = *soa_;
  // A memoized winner may have left kTransmit since the set was built.
  if (s.phase[i] != static_cast<std::uint8_t>(Phase::kTransmit)) return kNever;

  // A deferred transmitter re-syncs its exchange clock to real time; a
  // mid-exchange one (clock already past the sweep start) keeps it.
  double t = std::max(s.tx_clock[i], t1 - cfg_.dt_s);

  // A non-wifi burst election transfers over the elected backend, not
  // the 802.11n MAC/PHY (whose PER at, say, a cellular-range d* is ~1).
  const std::int32_t bl = s.burst_link[i];
  const link::LinkBackend* burst = nullptr;
  double d = s.d_star[i];
  double rate_bps = 0.0;
  if (bl >= 0 && !link_is_wifi_[static_cast<std::size_t>(bl)]) {
    burst = &cfg_.links->backend(static_cast<std::size_t>(bl));
    d = std::max(d, burst->config().min_distance_m);
    rate_bps = burst->rate_bps(d);
    if (rate_bps <= 0.0) {
      // Every election scored zero (d* beyond all ranges): the mission
      // honestly cannot deliver; back off so sweeps stay cheap.
      s.stall_reason[i] = static_cast<std::uint8_t>(mac::IncompleteReason::kOutOfRange);
      s.tx_clock[i] = std::max(t, t1) + cfg_.stall_retry_s;
      return s.tx_clock[i];
    }
  }

  if (chaos_on_ && !s.setup_done[i]) {
    t = chaos_setup(i, t);
    if (!s.setup_done[i]) {
      s.tx_clock[i] = std::max(t, t1);
      return s.tx_clock[i];
    }
  }

  const auto& eff = eff_memo_[eff_row].second;
  const double snr_mean_db = burst != nullptr ? burst->snr_db_at(d) : 0.0;
  const std::uint64_t unit_bytes =
      burst != nullptr
          ? std::max<std::uint64_t>(static_cast<std::uint64_t>(burst->config().frame_bits) / 8, 1)
          : static_cast<std::uint64_t>(cfg_.mpdu.payload_bits() / 8);
  link::OutageProcess* const outage = burst != nullptr ? s.outage[i].get() : nullptr;
  while (t < t1) {
    if (outage != nullptr && !outage->is_up(t)) {
      s.stall_reason[i] = static_cast<std::uint8_t>(mac::IncompleteReason::kStarvedByOutage);
      t = outage->segment_end_s(t);
      continue;
    }
    if (chaos_on_) {
      const double ce = chaos_gate_end(i, t);
      if (ce > t) {
        if (s.want_reelect[i]) {
          // Detection costs the trigger window; the serial end-of-sweep
          // pass decides where (and on which link) to go from here.
          s.tx_clock[i] = t + cfg_.reelection.blackout_trigger_s;
          return s.tx_clock[i];
        }
        t = ce;
        continue;
      }
    }

    const std::uint64_t remaining = s.total_bytes[i] - s.delivered_bytes[i];
    const std::uint64_t backlog = (remaining + unit_bytes - 1) / unit_bytes;
    mac::TxFeedback fb{};
    link::BurstRound round{};
    if (burst != nullptr) {
      const link::LinkBackendConfig& lc = burst->config();
      round = link::burst_round(
          lc, std::min(backlog, static_cast<std::uint64_t>(lc.frames_per_burst)), snr_mean_db,
          rate_bps, link_errors_[static_cast<std::size_t>(bl)], s.rng[i]);
    } else {
      const int mcs = s.arf[i].select_mcs(t);
      const int max_n = cfg_.ampdu.max_subframes;
      fb = mac::ampdu_exchange(
          airtime_, mcs, static_cast<int>(std::min(backlog, static_cast<std::uint64_t>(max_n))),
          s.channel[i].snr_db(t, d, 0.0), data_errors_[static_cast<std::size_t>(mcs)],
          ba_errors_, s.rng[i]);
      s.arf[i].report(t, fb);
      round.sent = static_cast<std::uint64_t>(fb.attempted);
      round.delivered = static_cast<std::uint64_t>(fb.delivered);
    }

    s.mpdus_att[i] += round.sent;
    s.mpdus_del[i] += round.delivered;
    s.delivered_bytes[i] =
        std::min(s.total_bytes[i], s.delivered_bytes[i] + round.delivered * unit_bytes);
    if (t <= s.deadline[i]) s.by_deadline_bytes[i] = s.delivered_bytes[i];
    if (s.delivered_bytes[i] >= s.total_bytes[i]) {
      s.phase[i] = static_cast<std::uint8_t>(Phase::kDone);
      s.completed_t[i] = t;
      s.tx_clock[i] = t;
      tx_set_dirty_.store(true, std::memory_order_relaxed);
      return kNever;
    }

    // A degradation epoch slows the link by `scale` and feeds the CUSUM
    // that arms re-election.
    double scale = 1.0;
    if (chaos_on_ && s.chaos[i] != nullptr) {
      scale = s.chaos[i]->rate_scale(t);
      update_degrade_cusum(i, scale);
    }
    if (burst != nullptr) {
      // Only the serialization term slows down; the RTT does not.
      t += round.airtime_s(scale);
    } else {
      double dur = airtime_.exchange_s(fb.mcs_index, fb.attempted, fb.delivered == 0 ? 1 : 0);
      const double e = eff[static_cast<std::size_t>(fb.mcs_index)];
      if (e > 1e-6) dur /= e;
      // Total outage (nothing through, rock-bottom rate): back off.
      if (fb.delivered == 0 && fb.mcs_index == 0) dur = std::max(dur, cfg_.stall_retry_s);
      if (scale < 1.0) dur /= scale;
      t += dur;
    }
  }
  s.tx_clock[i] = t;
  return t;
}

// ---- link-chaos sweeps and the re-election ladder ---------------------------

bool FleetEngine::reelect_armed(std::uint32_t i) const {
  const Soa& s = *soa_;
  return cfg_.reelection.enabled && !s.want_reelect[i] &&
         s.reelections[i] < cfg_.reelection.max_reelections;
}

double FleetEngine::chaos_gate_end(std::uint32_t i, double t) {
  Soa& s = *soa_;
  double end = t;
  if (s.chaos[i] != nullptr && s.chaos[i]->blacked_out(t)) {
    const double be = s.chaos[i]->blackout_end_s(t);
    if (s.down_since[i] < 0.0) s.down_since[i] = t;
    s.stall_reason[i] = static_cast<std::uint8_t>(mac::IncompleteReason::kStarvedByOutage);
    if (reelect_armed(i) && be - s.down_since[i] >= cfg_.reelection.blackout_trigger_s) {
      s.want_reelect[i] = 1;
    }
    end = be;
  } else {
    s.down_since[i] = -1.0;
  }
  if (storms_ != nullptr) {
    const double inv_cell = 1.0 / std::max(cfg_.cell_size_m, 1e-6);
    const auto cx = static_cast<std::int64_t>(std::floor(s.px[i] * inv_cell));
    const auto cy = static_cast<std::int64_t>(std::floor(s.py[i] * inv_cell));
    if (storms_->storming(t, cx, cy)) {
      s.stall_reason[i] = static_cast<std::uint8_t>(mac::IncompleteReason::kStarvedByOutage);
      end = std::max(end, storms_->storm_end_s(t, cx, cy));
    }
  }
  return end;
}

double FleetEngine::chaos_setup(std::uint32_t i, double t) {
  constexpr int kMaxSetupAttempts = 8;
  Soa& s = *soa_;
  if (s.chaos[i] == nullptr || s.chaos[i]->config().setup_fail_p <= 0.0) {
    s.setup_done[i] = 1;
    return t;
  }
  // Wifi has no bearer to re-attach; model a re-association backoff.
  const double setup_s =
      s.session_setup[i] > 0.0 ? s.session_setup[i] : cfg_.stall_retry_s;
  int fails = 0;
  while (fails < kMaxSetupAttempts && s.chaos[i]->draw_setup_failure()) {
    ++fails;
    t += setup_s;
  }
  if (fails >= kMaxSetupAttempts) {
    // A full failure run: flag for re-election (when armed) and retry
    // the attach from the next sweep window otherwise.
    s.stall_reason[i] = static_cast<std::uint8_t>(mac::IncompleteReason::kSessionSetupFailed);
    if (reelect_armed(i)) s.want_reelect[i] = 1;
  } else {
    s.setup_done[i] = 1;
  }
  return t;
}

void FleetEngine::update_degrade_cusum(std::uint32_t i, double scale) {
  Soa& s = *soa_;
  const ReElectionConfig& re = cfg_.reelection;
  s.degrade_cusum[i] =
      std::max(0.0, s.degrade_cusum[i] + (1.0 - scale) - re.degrade_cusum_k);
  if (s.degrade_cusum[i] > re.degrade_cusum_h && reelect_armed(i)) s.want_reelect[i] = 1;
}

void FleetEngine::retarget(std::uint32_t i, double t, double d_new) {
  Soa& s = *soa_;
  const double dx = s.px[i] - s.rx[i];
  const double dy = s.py[i] - s.ry[i];
  const double dz = s.pz[i] - s.rz[i];
  const double cur_d = std::sqrt(dx * dx + dy * dy + dz * dz);
  s.d_star[i] = std::min(d_new, cur_d);
  if (cur_d > 0.0 && s.d_star[i] < cur_d - 1e-9) {
    const double f = s.d_star[i] / cur_d;
    s.tx[i] = s.rx[i] + dx * f;
    s.ty[i] = s.ry[i] + dy * f;
    s.tz[i] = s.rz[i] + dz * f;
    s.phase[i] = static_cast<std::uint8_t>(Phase::kFerry);
    // Its cell key moves with it: the next rebuild re-buckets the row
    // even if it lands again before that rebuild runs.
    s.in_cells[i] = 0;
    // Serial (process_reelections), after this step's rebuild merged
    // every transmitting row, so the row is in tx_rows_.
    const auto at = std::lower_bound(tx_rows_.begin(), tx_rows_.end(), i);
    assert(at != tx_rows_.end() && *at == i);
    tx_rows_.erase(at);
    ferry_rows_.push_back(i);
  } else {
    // Already there: restart the exchange clock after the new attach.
    s.tx_clock[i] = t + s.session_setup[i];
  }
  tx_set_dirty_.store(true, std::memory_order_relaxed);
}

void FleetEngine::commit_reelection(std::uint32_t i, double t, int j,
                                    const policy::MultiLinkDecision& dec) {
  Soa& s = *soa_;
  const auto jl = static_cast<std::size_t>(j);
  const link::LinkBackendConfig& lc = cfg_.links->backend(jl).config();
  const bool wifi = link_is_wifi_[jl] != 0;
  s.burst_link[i] = j;
  s.session_setup[i] = wifi ? 0.0 : lc.session_setup_s;
  s.outage[i].reset();
  if (!wifi && !lc.outage.always_up()) {
    s.outage[i] = std::make_unique<link::OutageProcess>(
        lc.outage, sim::derive_seed(seed_, "fleet/outage/" + std::to_string(i) + "/r" +
                                               std::to_string(s.reelections[i])));
  }
  s.chaos[i] = std::make_unique<fault::LinkChaosStream>(
      cfg_.link_chaos.link(jl),
      sim::derive_seed(cfg_.link_chaos.seed,
                       "fleet/chaos/" + std::to_string(i) + "/" + std::to_string(jl) + "/r" +
                           std::to_string(s.reelections[i])));
  s.setup_done[i] = 0;
  s.down_since[i] = -1.0;
  s.degrade_cusum[i] = 0.0;
  s.utility[i] = dec.decision.utility;
  s.backend[i] = static_cast<std::uint8_t>(dec.decision.backend);
  // The new election's background trickle is credited if (and when) the
  // re-ferry leg lands; retarget zeroes nothing the ladder still needs.
  s.trickle[i] = std::min(
      s.total_bytes[i] - s.delivered_bytes[i],
      static_cast<std::uint64_t>(std::max(dec.trickle_bytes, 0.0)));
  retarget(i, t, std::max(dec.decision.d_opt_m, cfg_.scenario.min_distance_m));
}

void FleetEngine::fallback_ship_closer(std::uint32_t i, double t) {
  Soa& s = *soa_;
  const double dx = s.px[i] - s.rx[i];
  const double dy = s.py[i] - s.ry[i];
  const double dz = s.pz[i] - s.rz[i];
  const double cur_d = std::sqrt(dx * dx + dy * dy + dz * dz);
  const double floor_d = cfg_.scenario.min_distance_m;
  const double d_new =
      floor_d + (std::max(cur_d, floor_d) - floor_d) *
                    (1.0 - std::clamp(cfg_.reelection.ship_closer_fraction, 0.0, 1.0));
  // No trickle on the fallback rung: the ferry-closer leg keeps the
  // current (chaotic) link, whose credit the election already spent.
  s.trickle[i] = 0;
  s.setup_done[i] = 0;
  s.down_since[i] = -1.0;
  s.degrade_cusum[i] = 0.0;
  retarget(i, t, d_new);
}

void FleetEngine::process_reelections(double t) {
  Soa& s = *soa_;
  const auto kTransmitU8 = static_cast<std::uint8_t>(Phase::kTransmit);
  const bool multilink = cfg_.links != nullptr && !cfg_.links->empty();
  reelect_rows_.clear();
  for (const std::uint32_t i : winners_) {
    if (s.want_reelect[i]) reelect_rows_.push_back(i);
  }
  std::sort(reelect_rows_.begin(), reelect_rows_.end());
  for (const std::uint32_t i : reelect_rows_) {
    s.want_reelect[i] = 0;
    if (s.phase[i] != kTransmitU8) continue;
    if (s.reelections[i] >= cfg_.reelection.max_reelections) continue;
    const std::uint64_t residual = s.total_bytes[i] - s.delivered_bytes[i];
    if (residual == 0) continue;
    // Every processed trigger — commit, reject or fallback — spends one
    // rung of the cap, so a link that stays hostile cannot thrash.
    ++s.reelections[i];

    const double dx = s.px[i] - s.rx[i];
    const double dy = s.py[i] - s.ry[i];
    const double dz = s.pz[i] - s.rz[i];
    const double cur_d = std::sqrt(dx * dx + dy * dy + dz * dz);

    policy::Query q;
    q.d0_m = std::max(cur_d, cfg_.scenario.min_distance_m);
    q.speed_mps = s.speed[i];
    q.mdata_bytes = static_cast<double>(residual);
    q.min_distance_m = cfg_.scenario.min_distance_m;
    q.rho_per_m = s.rho[i];

    // The switch election: commit to its challenger, if any clears the
    // margin over re-optimizing the current link, within the budget.
    policy::SwitchDecision sw;
    if (multilink) {
      sw = service_.decide_switch(q, std::max(s.burst_link[i], std::int32_t{0}),
                                  cfg_.reelection.commit_margin);
    }
    const std::int32_t to = sw.challenger.burst_link;
    if (to >= 0 && s.rebudget[i].allow(t, 0.0, sw.challenger.decision.cdelay_s)) {
      s.rebudget[i].consume();
      commit_reelection(i, t, to, sw.challenger);
    } else {
      fallback_ship_closer(i, t);
    }
  }
}

void FleetEngine::step() {
  const double t0 = now_;
  const Clock::time_point c0 = Clock::now();
  sim_.run_until(t0);  // spawn / fault events due by the sweep start
  decide_pending();
  const Clock::time_point c1 = Clock::now();
  // Storm windows are sampled serially before any parallel sweep; the
  // workers only read them.
  if (storms_ != nullptr) storms_->ensure_horizon(t0, t0 + cfg_.dt_s);
  const Clock::time_point c2 = Clock::now();
  step_kinematics(t0);
  const Clock::time_point c3 = Clock::now();
  const double exchanges_before = phase_s_.exchanges;
  const bool ran_winners = step_transfers(t0);
  const Clock::time_point c4 = Clock::now();
  if (ran_winners && chaos_on_ && cfg_.reelection.enabled) process_reelections(t0 + cfg_.dt_s);
  now_ = t0 + cfg_.dt_s;
  const Clock::time_point c5 = Clock::now();
  phase_s_.decide += seconds(c0, c1);
  phase_s_.kinematics += seconds(c2, c3);
  // run_winners books its own share of the transfer pass.
  phase_s_.admission += seconds(c3, c4) - (phase_s_.exchanges - exchanges_before);
  phase_s_.chaos += seconds(c1, c2) + seconds(c4, c5);
}

void FleetEngine::run_until(double t_s) {
  while (now_ + cfg_.dt_s <= t_s + 1e-12) step();
  sim_.run_until(now_);
}

MissionStatus FleetEngine::mission(int idx) const {
  assert(idx >= 0 && static_cast<std::size_t>(idx) < count_);
  const Soa& s = *soa_;
  const auto i = static_cast<std::size_t>(idx);
  MissionStatus st;
  st.phase = static_cast<Phase>(s.phase[i]);
  st.d_star_m = s.d_star[i];
  st.utility = s.utility[i];
  st.backend = static_cast<policy::Backend>(s.backend[i]);
  st.bytes_total = s.total_bytes[i];
  st.bytes_delivered = s.delivered_bytes[i];
  st.bytes_by_deadline = s.by_deadline_bytes[i];
  st.mpdus_attempted = s.mpdus_att[i];
  st.mpdus_delivered = s.mpdus_del[i];
  st.spawn_t_s = s.spawn_t[i];
  st.arrived_t_s = s.arrived_t[i];
  st.completed_t_s = s.completed_t[i];
  st.burst_link = s.burst_link[i];
  st.trickle_bytes = s.trickle[i];
  st.reelections = s.reelections[i];
  st.stall_reason = static_cast<mac::IncompleteReason>(s.stall_reason[i]);
  return st;
}

geo::Vec3 FleetEngine::position(int idx) const {
  assert(idx >= 0 && static_cast<std::size_t>(idx) < count_);
  const Soa& s = *soa_;
  const auto i = static_cast<std::size_t>(idx);
  return {s.px[i], s.py[i], s.pz[i]};
}

FleetTotals FleetEngine::totals() const {
  const Soa& s = *soa_;
  FleetTotals t;
  t.missions = count_;
  double completion_sum = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    switch (static_cast<Phase>(s.phase[i])) {
      case Phase::kFerry: ++t.ferrying; break;
      case Phase::kTransmit: ++t.transmitting; break;
      case Phase::kDone:
        ++t.completed;
        completion_sum += s.completed_t[i] - s.spawn_t[i];
        break;
      case Phase::kFailed: ++t.failed; break;
    }
    t.bytes_delivered += s.delivered_bytes[i];
    if (s.total_bytes[i] > 0) {
      t.deadline_weighted_utility += static_cast<double>(s.by_deadline_bytes[i]) /
                                     static_cast<double>(s.total_bytes[i]);
    }
    t.reelections += static_cast<std::uint64_t>(s.reelections[i]);
    switch (static_cast<mac::IncompleteReason>(s.stall_reason[i])) {
      case mac::IncompleteReason::kStarvedByOutage:
      case mac::IncompleteReason::kSessionSetupFailed:
        ++t.stalled_by_link;
        break;
      case mac::IncompleteReason::kOutOfRange:
        ++t.stalled_out_of_range;
        break;
      default:
        break;
    }
  }
  if (t.completed > 0) t.mean_completion_s = completion_sum / static_cast<double>(t.completed);
  return t;
}

}  // namespace skyferry::fleet
