// Fleet-scale batched simulation engine (DESIGN.md §12).
//
// Many UAVs ferrying and transmitting at once over shared channels,
// organized for throughput: all per-UAV state lives in
// structure-of-arrays form (positions, velocities, battery, buffered
// Mdata, transfer progress as parallel contiguous arrays) and the fleet
// advances in fixed-dt batched sweeps — vectorizable point-mass
// kinematics, per-cell DCF contention from mac::analyze_contention, and
// transfer rounds through the same kernels as the single-link
// simulators (mac/exchange.h): 802.11n A-MPDU exchanges on the
// kAggregate fast path (jitter-marginalized phy::PerTable + one binomial
// draw per aggregate), frame-burst rounds for a non-wifi elected link.
//
// The "now or later?" question is answered where it scales: newly
// spawned missions are batched into one policy::DecisionService::decide
// span call (O(1) table interpolation per mission when a compiled
// PolicyTable is installed). Rare discrete events — mission arrivals and
// exponential in-flight failures — stay on sim::Simulator and are
// bridged into the sweep loop, so the event queue holds O(missions)
// entries instead of O(exchanges).
//
// Determinism contract: results are bit-identical across
// FleetConfig::threads (fixed 256-UAV chunking, disjoint writes,
// per-UAV counter-based RNG streams) and across the batched/scalar
// kinematics modes (same FP expression order, different loop structure).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/scenario.h"
#include "fault/link_chaos.h"
#include "fleet/scheduler.h"
#include "link/multilink.h"
#include "geo/vec3.h"
#include "mac/ampdu.h"
#include "mac/contention.h"
#include "mac/exchange.h"
#include "mac/rate_control.h"
#include "net/retry_budget.h"
#include "phy/channel.h"
#include "phy/per_table.h"
#include "policy/service.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace skyferry::exp {
class ThreadPool;
}

namespace skyferry::fleet {

/// Mission lifecycle. kFerry -> kTransmit -> kDone, with kFailed
/// reachable from kFerry (crash) or anywhere (battery exhaustion).
enum class Phase : std::uint8_t { kFerry, kTransmit, kDone, kFailed };

/// Loop structure of the kinematics sweep. Both modes evaluate the same
/// floating-point expressions per UAV and are bit-identical; kBatched
/// splits the sweep into per-array passes over the SoA columns so the
/// compiler can vectorize, kScalar fuses everything per UAV (the
/// reference for the determinism suite).
enum class KinematicsMode : std::uint8_t { kBatched, kScalar };

/// Mid-mission re-election guard ladder (DESIGN.md §14). Triggers are
/// driven exclusively by injected link-chaos evidence (sustained
/// blackouts past blackout_trigger_s, degradation past a CUSUM bound,
/// repeated session-setup failures), so a zero-chaos fleet never
/// re-elects and stays byte-identical with this enabled or not. Every
/// processed trigger walks the ladder: re-election cap -> deadline-
/// aware retry budget -> commit margin over the current link's pinned
/// election, all links solved at once (decide_multilink_per_link) from
/// the current position with the residual batch -> fallback
/// ferry-closer-and-ship on the current link.
struct ReElectionConfig {
  bool enabled{false};
  /// Processed triggers (commits, rejects and fallbacks alike) a
  /// mission may spend before it rides out the chaos where it stands.
  int max_reelections{2};
  /// A blackout whose remaining span (from first contact) reaches this
  /// is "sustained" and trips the trigger.
  double blackout_trigger_s{15.0};
  /// CUSUM over per-round degradation evidence (1 - rate_scale):
  /// statistic += evidence - k, clamped at 0; trips at h (the one-sided
  /// form of ctrl::OnlineChannelEstimator's CUSUM, ctrl/resilience.h).
  double degrade_cusum_k{0.15};
  double degrade_cusum_h{3.0};
  /// Switch links only when the best alternative beats re-optimizing
  /// the current link by this relative margin.
  double commit_margin{0.05};
  /// Deadline awareness: attempts and headroom gating each switch; the
  /// mission's own deadline tightens deadline_s when finite.
  net::RetryBudgetConfig retry_budget{};
  /// Fallback rung: ferry this fraction of the gap toward the distance
  /// floor and ship from there on the current link.
  double ship_closer_fraction{0.5};
};

struct FleetConfig {
  /// Sweep step [s]: the kinematics tick and the admission period.
  /// Exchanges keep their own continuous clocks inside each sweep.
  double dt_s{0.05};
  mac::MacTiming timing{};
  mac::AmpduPolicy ampdu{};
  mac::MpduFormat mpdu{};
  phy::ChannelConfig channel{phy::ChannelConfig::quadrocopter()};
  phy::ErrorModelConfig error{};
  double per_mpdu_snr_jitter_db{2.0};
  /// SNR grid of the aggregate-path PER tables.
  phy::PerTableConfig per_table{};
  /// Optional cross-engine PER-table cache (same contract as
  /// mac::LinkConfig::shared_tables); nullptr = private cache.
  std::shared_ptr<phy::PerTableCache> shared_tables{};
  /// Back off this long when an exchange delivers nothing at MCS 0.
  double stall_retry_s{0.5};

  /// Shared-channel cell edge [m]: transmitters whose positions fall in
  /// the same cell_size_m x cell_size_m ground cell contend for one
  /// channel. Make it huge for a single global collision domain.
  double cell_size_m{200.0};
  /// Concurrent transmitters a cell admits per sweep; the scheduler
  /// defers the rest to a later sweep.
  int max_tx_per_cell{4};
  SchedulerPolicy policy{SchedulerPolicy::kFifo};

  /// Worker threads for the sweep loops (<=0: one per hardware thread,
  /// 1: inline). Bit-identical results for any value.
  int threads{1};
  KinematicsMode kinematics{KinematicsMode::kBatched};
  /// Flight endurance [s]; a UAV whose clock runs past it fails. The
  /// battery column drains at 1 s/s from spawn.
  double battery_autonomy_s{std::numeric_limits<double>::infinity()};

  /// Supplies the throughput model behind DecisionService and the
  /// default mission parameters (speed, Mdata, rho, d0, d_min).
  core::Scenario scenario{core::Scenario::quadrocopter()};

  /// Optional multi-backend link set. When set (and non-empty), spawn
  /// decisions route through DecisionService::decide_multilink — joint
  /// (link, d) selection with background trickle credited on arrival at
  /// the transmit point. Burst transfers honor the election: a wifi
  /// winner runs 802.11n A-MPDU exchanges, any other winner runs the
  /// elected backend's frame-burst rounds (its rate curve, PER table,
  /// RTT and outage process — link::burst_round on row-local state), so
  /// a cellular/LEO election beyond wifi range actually delivers.
  /// nullptr keeps the legacy single-802.11n decide path bit-identical
  /// (the differential suite pins this).
  std::shared_ptr<const link::LinkSet> links{};

  /// Seeded link-chaos axis (fault/link_chaos.h): per-link blackouts,
  /// degradation epochs and setup failures indexed by LinkSet position
  /// (link 0 on the legacy path), plus regional storms over the same
  /// ground cells the contention scheduler uses. A default (empty) plan
  /// is byte-identical to today's chaos-free engine: no extra RNG
  /// draws, no extra branches taken.
  fault::LinkFaultPlan link_chaos{};
  /// Mid-mission re-election ladder; inert without chaos.
  ReElectionConfig reelection{};
};

/// One mission: a UAV holding `mdata_bytes` at `start_pos` that must
/// deliver to the receiver at `receiver_pos`. Fields <= 0 (or empty)
/// default from FleetConfig::scenario.
struct MissionSpec {
  geo::Vec3 start_pos{};
  geo::Vec3 receiver_pos{};
  double speed_mps{0.0};      ///< <=0: scenario speed
  double mdata_bytes{0.0};    ///< <=0: scenario Mdata
  double rho_per_m{-1.0};     ///< <0: scenario rho (0 disables failures)
  double deadline_s{std::numeric_limits<double>::infinity()};
  double spawn_t_s{0.0};
  /// >=0: fly to exactly this distance from the receiver and transmit
  /// there, skipping the DecisionService (equivalence/unit tests).
  double fixed_target_distance_m{-1.0};
};

struct MissionStatus {
  Phase phase{Phase::kFerry};
  double d_star_m{0.0};         ///< chosen transmit distance
  double utility{0.0};          ///< decision utility (0 for fixed targets)
  policy::Backend backend{policy::Backend::kExact};
  std::uint64_t bytes_total{0};
  std::uint64_t bytes_delivered{0};
  /// Bytes whose delivering exchange finished by deadline_s — the
  /// numerator of the deadline-weighted utility.
  std::uint64_t bytes_by_deadline{0};
  std::uint64_t mpdus_attempted{0};
  std::uint64_t mpdus_delivered{0};
  double spawn_t_s{0.0};
  double arrived_t_s{0.0};      ///< reached the transmit point (0 if not yet)
  double completed_t_s{0.0};    ///< last byte landed (0 if not yet)
  /// Multi-link decisions only: elected burst link (LinkSet index; -1
  /// on the legacy path) and the background bytes credited on arrival.
  std::int32_t burst_link{-1};
  std::uint64_t trickle_bytes{0};
  /// Chaos campaigns: processed re-election triggers and the failure
  /// taxonomy of the mission's latest stall (kNone when it never
  /// stalled) — "starved by outage" vs "out of range" vs "setup failed".
  std::int32_t reelections{0};
  mac::IncompleteReason stall_reason{mac::IncompleteReason::kNone};
};

struct FleetTotals {
  std::size_t missions{0};
  std::size_t ferrying{0};
  std::size_t transmitting{0};
  std::size_t completed{0};
  std::size_t failed{0};
  std::uint64_t bytes_delivered{0};
  /// Mean spawn-to-completion time over completed missions [s].
  double mean_completion_s{0.0};
  /// Sum over missions of bytes_by_deadline / bytes_total — the metric
  /// the urgent-first scheduler maximizes under contention.
  double deadline_weighted_utility{0.0};
  /// Chaos campaign counters: total processed re-election triggers and
  /// missions whose latest stall carries each taxonomy tag.
  std::uint64_t reelections{0};
  std::size_t stalled_by_link{0};   ///< kStarvedByOutage
  std::size_t stalled_out_of_range{0};  ///< kOutOfRange
};

/// Wall-clock seconds FleetEngine::step() spent per phase, summed over
/// every sweep so far. Timing only: no result depends on it.
struct FleetPhaseSeconds {
  double decide{0.0};      ///< spawn/crash events + the batched decide
  double kinematics{0.0};  ///< ferry sweep + endurance drain
  double admission{0.0};   ///< transmit-set maintenance + cell admission
  double exchanges{0.0};   ///< winners' transfer rounds, chaos gates included
  double chaos{0.0};       ///< storm horizon + the re-election ladder
  [[nodiscard]] double total() const noexcept {
    return decide + kinematics + admission + exchanges + chaos;
  }
};

class FleetEngine {
 public:
  FleetEngine(FleetConfig cfg, std::uint64_t seed);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Register a mission; it spawns (and takes its distance decision) at
  /// spec.spawn_t_s. Returns the mission index.
  int add_mission(const MissionSpec& spec);

  /// Compiled policy for the batched decide path (setup time only).
  /// Throws policy::TableError unless the table was compiled for the
  /// scenario's throughput fit.
  void install_policy_table(policy::PolicyTable table);

  /// Advance the fleet to absolute time t_s in dt_s sweeps.
  void run_until(double t_s);
  /// One dt_s sweep (the benchmark hook).
  void step();

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t mission_count() const noexcept { return count_; }
  [[nodiscard]] MissionStatus mission(int i) const;
  [[nodiscard]] geo::Vec3 position(int i) const;
  [[nodiscard]] FleetTotals totals() const;
  /// Where step() has spent its time so far (accumulated serially
  /// between the phases, outside every result path).
  [[nodiscard]] const FleetPhaseSeconds& phase_seconds() const noexcept { return phase_s_; }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const policy::DecisionService& service() const noexcept { return service_; }
  [[nodiscard]] const FleetConfig& config() const noexcept { return cfg_; }

 private:
  struct Soa;

  void spawn(std::uint32_t i);
  void decide_pending();
  /// Credit the mission's background-trickle bytes at arrival (called
  /// from both kinematics arrival sites; touches only row i).
  void credit_trickle(std::uint32_t i);
  void step_kinematics(double t0);
  void step_transfers(double t0);
  void run_winners(double t0);
  /// One winner's transfer rounds inside this sweep's window: 802.11n
  /// A-MPDU exchanges (mac::ampdu_exchange), or frame-burst ARQ rounds
  /// (link::burst_round) at a non-wifi elected backend's rate curve, PER
  /// table, RTT and per-mission outage process. Returns the next round's
  /// start time (+inf once the mission left kTransmit) — the input to
  /// the idle-skip watermark.
  double run_exchanges(std::uint32_t i, std::uint32_t eff_row, double t1);
  /// Chaos gate for one transfer round: elected-link blackout or a
  /// regional storm over this UAV's cell stalls it. Returns the stall
  /// end (== t when clear). Per-link blackouts arm the re-election
  /// trigger; storms hit every link at once, so they do not. Row-local
  /// except for const reads of the serially-extended storm schedule.
  double chaos_gate_end(std::uint32_t i, double t);
  /// One-time chaos attach at the transmit point: each failed draw
  /// burns a setup interval before the retry; a full failure run flags
  /// the link for re-election. Returns the advanced clock.
  double chaos_setup(std::uint32_t i, double t);
  /// Per-round degradation CUSUM update (evidence = 1 - rate_scale).
  void update_degrade_cusum(std::uint32_t i, double scale);
  [[nodiscard]] bool reelect_armed(std::uint32_t i) const;
  /// Serial end-of-sweep pass consuming want_reelect flags: the guard
  /// ladder (cap, retry budget, commit margin between the per-link
  /// elections of one decide_multilink_per_link solve on the residual
  /// batch, ferry-closer fallback). Serial by design so
  /// decide ordering — and therefore every downstream draw — is
  /// thread-count independent.
  void process_reelections(double t);
  void commit_reelection(std::uint32_t i, double t, int j, const policy::MultiLinkDecision& dec);
  void fallback_ship_closer(std::uint32_t i, double t);
  /// Point the mission at distance d_new along its current line to the
  /// receiver: re-ferry when strictly closer, else restart the exchange
  /// clock in place after the (new) session setup.
  void retarget(std::uint32_t i, double t, double d_new);
  template <class Fn>
  void parallel_for(std::size_t n, const Fn& fn);

  FleetConfig cfg_;
  std::uint64_t seed_;
  core::PaperLogThroughput model_;
  policy::DecisionService service_;
  sim::Simulator sim_;
  double now_{0.0};
  std::size_t count_{0};

  std::unique_ptr<Soa> soa_;
  std::unique_ptr<exp::ThreadPool> pool_;

  /// Aggregate-path PER sources (tables prefetched so sweeps never touch
  /// the cache mutex) and the airtime memo, all filled at construction
  /// and read-only in the sweeps.
  phy::PerTableCache tables_;
  std::array<mac::FrameErrors, phy::kNumMcs> data_errors_{};
  mac::FrameErrors ba_errors_{};
  mac::AirtimeMemo airtime_;
  std::vector<double> frame_airtime_s_;        ///< full-aggregate airtime per mcs
  double ba_airtime_s_{0.0};

  /// Per-sweep contention efficiency memo: (station count -> per-MCS
  /// efficiency row), filled serially before the parallel transfer pass.
  std::vector<std::pair<int, std::array<double, phy::kNumMcs>>> eff_memo_;

  /// Per-LinkSet-index "is the 802.11n backend" flag (empty on the
  /// legacy path); non-wifi burst elections bypass cell contention and
  /// run frame-burst rounds with that link's prefetched PER table.
  std::vector<std::uint8_t> link_is_wifi_;
  std::vector<mac::FrameErrors> link_errors_;

  std::vector<std::uint32_t> pending_decisions_;
  // step_transfers state (members to avoid per-sweep allocation). The
  // winner set is memoized across sweeps: transmitters hover, so cell
  // membership only changes on a phase transition or a link switch,
  // which raise tx_set_dirty_ (atomic: arrivals/completions flip it from
  // inside parallel chunks; the flag's value is thread-count
  // independent). cell_keys_ holds every wifi transmitter as a
  // (cell key, row) pair, kept sorted across rebuilds (Soa::in_cells
  // marks its rows); cell_joiners_ collects the rows a rebuild adds.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cell_keys_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cell_joiners_;
  std::vector<TxCandidate> cell_candidates_;
  std::vector<std::uint32_t> winners_;
  std::vector<std::uint32_t> winner_eff_row_;
  std::atomic<bool> tx_set_dirty_{true};
  bool winners_contended_{false};
  /// Earliest next exchange-start over the memoized winners: a sweep
  /// whose window ends before it has nothing to simulate and skips the
  /// transfer pass outright (contention-stretched exchanges can span
  /// hundreds of sweeps).
  double next_fire_s_{-std::numeric_limits<double>::infinity()};
  std::vector<double> chunk_min_;  ///< per-chunk watermark scratch
  /// Live kFerry count; the kinematics sweep is skipped at zero.
  /// Atomic: arrivals decrement from inside parallel chunks. The value
  /// is a pure count, identical for every thread count.
  std::atomic<std::int64_t> ferrying_{0};

  /// True when cfg_.link_chaos has any active axis. Every chaos branch
  /// in the sweeps hides behind it, which is what keeps the zero-chaos
  /// configuration byte-identical to the pre-chaos engine.
  bool chaos_on_{false};
  /// Regional storm schedule (null without a storm axis). Windows are
  /// extended serially at the top of each step; the parallel sweeps
  /// only perform const queries against them.
  std::unique_ptr<fault::StormSchedule> storms_;

  FleetPhaseSeconds phase_s_{};
};

}  // namespace skyferry::fleet
