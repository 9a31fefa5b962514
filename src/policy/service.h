// The single front door for every "now or later?" decision. Callers
// build Query PODs and call decide() on a batch; the service routes each
// query to the compiled PolicyTable (O(1) interpolation, the fleet-scale
// hot path) when one is installed and covers it, and to the exact
// optimizer otherwise. With no table installed the service *is* the
// exact solver behind a uniform API — bit-identical to calling
// core::optimize / optimize_joint directly, so the fig benches serve
// their decisions through it without regenerating a single golden.
//
// Thread safety: decide() is const and safe to call concurrently from
// any number of threads on one shared service (the TSan tree proves it);
// install_table() is a setup-time operation and must not race decide().
// The table path performs zero steady-state allocations: every model
// object it needs lives on the stack (the model name strings are under
// the SSO threshold) and the answers land in caller-provided slots.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/throughput_model.h"
#include "link/multilink.h"
#include "policy/api.h"
#include "policy/table.h"

namespace skyferry::policy {

class DecisionService {
 public:
  /// `model` answers every query and must outlive the service.
  explicit DecisionService(const core::ThroughputModel& model) noexcept : model_(model) {}

  /// Install the compiled policy (setup time, not concurrent with
  /// decide()). Queries outside the table's domain, or with any exact-
  /// only feature (other objective, non-exponential law, different
  /// floor), still fall back to the exact solver.
  /// Throws TableError unless the service's model is a
  /// core::PaperLogThroughput with exactly the table's (a, b, scale,
  /// min_distance_m): a table compiled for another throughput fit would
  /// serve d* the service's own link cannot sustain.
  void install_table(PolicyTable table);
  [[nodiscard]] bool has_table() const noexcept { return table_.has_value(); }
  [[nodiscard]] const PolicyTable* table() const noexcept {
    return table_ ? &*table_ : nullptr;
  }

  /// Answer queries[i] into out[i]. The spans must have equal size;
  /// throws std::invalid_argument otherwise (and for a kJointSpeed query
  /// without a platform). Safe to call concurrently.
  void decide(std::span<const Query> queries, std::span<Decision> out) const;

  /// Single-query convenience over the same path.
  [[nodiscard]] Decision decide_one(const Query& q) const;

  /// Install a multi-backend link set (setup time, not concurrent with
  /// decide_multilink()). Shared so a fleet of engines can serve one
  /// set without copies. Every backend config is revalidated here: a
  /// set with any backend whose validate() fails is kept for
  /// inspection via links() but treated as unusable, so decisions fall
  /// back instead of optimizing over a poisoned backend.
  void install_links(std::shared_ptr<const link::LinkSet> links);
  [[nodiscard]] bool has_links() const noexcept { return links_ != nullptr && !links_->empty(); }
  [[nodiscard]] bool links_valid() const noexcept { return has_links() && !links_invalid_; }
  [[nodiscard]] const link::LinkSet* links() const noexcept { return links_.get(); }

  /// Joint (link, d) decisions over the installed link set:
  /// link::optimize_multilink per query, the free burst election.
  /// Degrades gracefully instead of erroring the batch: a
  /// missing/empty/invalid link set answers that query with the
  /// single-link exact optimum tagged via Decision::fallback_reason
  /// (burst_link -1, the whole batch as burst bytes). Throws
  /// std::invalid_argument only on span-size mismatch. Safe to call
  /// concurrently; each query counts one exact call.
  void decide_multilink(std::span<const Query> queries, std::span<MultiLinkDecision> out) const;
  [[nodiscard]] MultiLinkDecision decide_multilink_one(const Query& q) const;

  /// Every link's pinned election for `q` from one exact solve
  /// (link::optimize_multilink_per_link): out[j] is the joint decision
  /// with the burst pinned to link j — the re-election ladder's
  /// "stay" and "switch" candidates at once. With one installed link,
  /// out[0] is decide_multilink_one(q). A slot past the installed set,
  /// and every slot when the set is missing, empty or invalid, gets the
  /// tagged single-link fallback (kInvalidBackend past the set). Counts
  /// one exact call per solve run: the joint solve, plus the fallback
  /// solve when any slot needs it. Safe to call concurrently.
  void decide_multilink_per_link(const Query& q, std::span<MultiLinkDecision> out) const;

  /// True when `q` would be answered by the table path right now.
  [[nodiscard]] bool table_eligible(const Query& q) const noexcept;

  struct Counters {
    std::uint64_t table{0};
    std::uint64_t exact{0};
  };
  [[nodiscard]] Counters counters() const noexcept {
    return {table_hits_.load(std::memory_order_relaxed),
            exact_calls_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] const core::ThroughputModel& model() const noexcept { return model_; }

 private:
  [[nodiscard]] Decision decide_table(const Query& q) const noexcept;
  [[nodiscard]] Decision decide_exact(const Query& q) const;
  /// Why multi-link queries cannot use the installed set right now
  /// (kNone when they can).
  [[nodiscard]] FallbackReason links_unusable() const noexcept;
  /// The graceful-degradation path: single-link exact optimum, tagged.
  [[nodiscard]] MultiLinkDecision decide_multilink_fallback(const Query& q,
                                                            FallbackReason why) const;

  const core::ThroughputModel& model_;
  std::shared_ptr<const link::LinkSet> links_;
  /// Set at install when any backend config fails validate().
  bool links_invalid_{false};
  /// Non-owning backend views in index order, rebuilt at install so the
  /// hot path never allocates.
  std::vector<const link::LinkBackend*> link_views_;
  std::optional<PolicyTable> table_;
  /// The table's own throughput model, rebuilt once at install so the
  /// hot path evaluates U against exactly what the compiler solved.
  std::optional<core::PaperLogThroughput> table_model_;
  mutable std::atomic<std::uint64_t> table_hits_{0};
  mutable std::atomic<std::uint64_t> exact_calls_{0};
};

}  // namespace skyferry::policy
