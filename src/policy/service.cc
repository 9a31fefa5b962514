#include "policy/service.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/delay.h"
#include "core/joint_optimizer.h"
#include "core/utility.h"
#include "io/format.h"
#include "uav/failure.h"

namespace skyferry::policy {

void DecisionService::install_table(PolicyTable table) {
  const TableModelSpec& m = table.model();
  const auto* fit = dynamic_cast<const core::PaperLogThroughput*>(&model_);
  if (fit == nullptr || fit->a() != m.a || fit->b() != m.b || fit->scale() != m.scale ||
      fit->min_distance_m() != m.min_distance_m) {
    throw TableError("policy table: compiled for '" + m.name + "' (a=" + io::format_number(m.a) +
                     ", b=" + io::format_number(m.b) + ", scale=" + io::format_number(m.scale) +
                     ", min_d=" + io::format_number(m.min_distance_m) +
                     ") but the decision service answers with '" + model_.name() + "'");
  }
  table_model_.emplace(m.a, m.b, m.name, m.scale, m.min_distance_m);
  table_.emplace(std::move(table));
}

bool DecisionService::table_eligible(const Query& q) const noexcept {
  if (!table_) return false;
  if (q.objective != Objective::kPaperUtility) return false;
  if (q.law != uav::FailureLaw::kExponential) return false;
  if (q.min_distance_m != table_->min_distance_m()) return false;
  return table_->covers(q.d0_m, q.speed_mps, q.mdata_bytes, q.rho_per_m);
}

Decision DecisionService::decide_table(const Query& q) const noexcept {
  // U is stationary at the optimum, so serving the *exact* decomposition
  // at the interpolated d* keeps the utility error second-order and the
  // (d*, U, Cdelay, δ) tuple self-consistent. The argmax surface is not
  // continuous, though: where two utility modes tie (interior optimum
  // vs transmit-now at d0, interior vs the anti-collision floor) the
  // blended d* lands in the valley between them. The cell's min/max
  // corner d* carry each mode's own optimum and the interval ends carry
  // the boundary modes, so all five candidates — one exact evaluation
  // each, still O(1) — compete and the best is served.
  const PolicyTable::DOptCandidates cand =
      table_->lookup_d_opt_candidates(q.d0_m, q.speed_mps, q.mdata_bytes, q.rho_per_m);
  const core::DeliveryParams params{q.d0_m, q.speed_mps, q.mdata_bytes, q.min_distance_m};
  const core::CommDelayModel delay(*table_model_, params);
  const uav::FailureModel failure(q.rho_per_m);
  const core::UtilityFunction u(delay, failure);
  double d = std::clamp(cand.blend, q.min_distance_m, q.d0_m);
  core::UtilityPoint p = u.evaluate(d);
  int evals = 1;
  for (const double c : {cand.lo, cand.hi, q.d0_m, q.min_distance_m}) {
    const double dc = std::clamp(c, q.min_distance_m, q.d0_m);
    if (dc == d) continue;
    const core::UtilityPoint pc = u.evaluate(dc);
    ++evals;
    if (pc.utility > p.utility) {
      d = dc;
      p = pc;
    }
  }

  Decision out;
  out.d_opt_m = d;
  out.v_opt_mps = q.speed_mps;
  out.utility = p.utility;
  out.cdelay_s = p.cdelay_s;
  out.discount = p.discount;
  out.rho_per_m = q.rho_per_m;
  out.boundary = classify_boundary(d, q.min_distance_m, q.d0_m);
  out.backend = Backend::kTable;
  out.evaluations = evals;
  return out;
}

Decision DecisionService::decide_exact(const Query& q) const {
  Decision out;
  out.backend = Backend::kExact;
  out.v_opt_mps = q.speed_mps;

  if (q.objective == Objective::kJointSpeed) {
    if (q.platform == nullptr)
      throw std::invalid_argument("policy: kJointSpeed query without a platform");
    core::JointOptimizeOptions jopt;
    jopt.speed_grid_points = q.joint_speed_grid;
    jopt.distance_opts = q.optimize;
    jopt.min_speed_mps = q.joint_min_speed_mps;
    const core::DeliveryParams params{q.d0_m, q.speed_mps, q.mdata_bytes, q.min_distance_m};
    const core::JointOptimizeResult r = core::optimize_joint(model_, *q.platform, params, jopt);
    out.d_opt_m = r.d_opt_m;
    out.v_opt_mps = r.v_opt_mps;
    out.utility = r.utility;
    out.cdelay_s = r.cdelay_s;
    out.discount = r.discount;
    out.rho_per_m = r.rho_at_v;
    out.boundary = r.boundary;
    out.evaluations = r.evaluations;
    return out;
  }

  const uav::FailureModel failure(q.rho_per_m, q.law, q.weibull_shape);
  const core::DeliveryParams params{q.d0_m, q.speed_mps, q.mdata_bytes, q.min_distance_m};
  const core::CommDelayModel delay(model_, params);
  const core::OptimizeResult r = core::optimize(core::UtilityFunction(delay, failure), q.optimize);
  out.d_opt_m = r.d_opt_m;
  out.utility = r.utility;
  out.cdelay_s = r.cdelay_s;
  out.discount = r.discount;
  out.rho_per_m = failure.rho();
  out.boundary = r.boundary;
  out.evaluations = r.evaluations;
  return out;
}

void DecisionService::install_links(std::shared_ptr<const link::LinkSet> links) {
  links_ = std::move(links);
  links_invalid_ = false;
  if (links_ != nullptr) {
    for (const link::LinkBackendConfig& c : links_->configs()) {
      try {
        c.validate();
      } catch (const link::ConfigError&) {
        links_invalid_ = true;
        break;
      }
    }
  }
  link_views_ = links_valid() ? links_->views() : std::vector<const link::LinkBackend*>{};
}

MultiLinkDecision DecisionService::decide_multilink_fallback(const Query& q,
                                                             FallbackReason why) const {
  exact_calls_.fetch_add(1, std::memory_order_relaxed);
  MultiLinkDecision out;
  out.decision = decide_exact(q);
  out.decision.fallback_reason = why;
  out.burst_link = -1;
  out.trickle_bytes = 0.0;
  out.burst_bytes = q.mdata_bytes;
  return out;
}

namespace {

MultiLinkDecision to_decision(const link::MultiLinkResult& r, const Query& q, double rho) {
  MultiLinkDecision out;
  out.decision.d_opt_m = r.decision.d_opt_m;
  out.decision.v_opt_mps = q.speed_mps;
  out.decision.utility = r.decision.utility;
  out.decision.cdelay_s = r.decision.cdelay_s;
  out.decision.discount = r.decision.discount;
  out.decision.rho_per_m = rho;
  out.decision.boundary = r.decision.boundary;
  out.decision.backend = Backend::kExact;
  out.decision.evaluations = r.decision.evaluations;
  out.burst_link = r.burst_link;
  out.trickle_bytes = r.trickle_bytes;
  out.burst_bytes = r.burst_bytes;
  return out;
}

}  // namespace

FallbackReason DecisionService::links_unusable() const noexcept {
  if (links_invalid_) return FallbackReason::kInvalidBackend;
  return has_links() ? FallbackReason::kNone : FallbackReason::kNoLinkSet;
}

MultiLinkDecision DecisionService::decide_multilink_one(const Query& q) const {
  if (const FallbackReason why = links_unusable(); why != FallbackReason::kNone)
    return decide_multilink_fallback(q, why);
  exact_calls_.fetch_add(1, std::memory_order_relaxed);
  const uav::FailureModel failure(q.rho_per_m, q.law, q.weibull_shape);
  const link::MultiLinkParams p{q.d0_m, q.speed_mps, q.mdata_bytes, q.min_distance_m};
  return to_decision(link::optimize_multilink(link_views_, p, failure, q.optimize), q,
                     failure.rho());
}

SwitchDecision DecisionService::decide_switch(const Query& q, std::int32_t stay,
                                             double commit_margin) const {
  SwitchDecision out;
  if (const FallbackReason why = links_unusable(); why != FallbackReason::kNone) {
    out.stay = decide_multilink_fallback(q, why);
    return out;
  }
  if (stay < 0 || static_cast<std::size_t>(stay) >= link_views_.size())
    throw std::invalid_argument("policy: decide_switch() stay link " + std::to_string(stay) +
                                " is not in the installed set of " +
                                std::to_string(link_views_.size()));
  exact_calls_.fetch_add(1, std::memory_order_relaxed);
  const uav::FailureModel failure(q.rho_per_m, q.law, q.weibull_shape);
  const link::MultiLinkParams p{q.d0_m, q.speed_mps, q.mdata_bytes, q.min_distance_m};
  const link::SwitchElection e =
      link::elect_switch(link_views_, p, failure, stay, commit_margin, q.optimize);
  out.stay = to_decision(e.stay, q, failure.rho());
  if (e.challenger.burst_link >= 0) out.challenger = to_decision(e.challenger, q, failure.rho());
  return out;
}

void DecisionService::decide_multilink(std::span<const Query> queries,
                                       std::span<MultiLinkDecision> out) const {
  if (queries.size() != out.size())
    throw std::invalid_argument("policy: decide_multilink() spans must have equal size (" +
                                std::to_string(queries.size()) + " queries, " +
                                std::to_string(out.size()) + " slots)");
  for (std::size_t i = 0; i < queries.size(); ++i) out[i] = decide_multilink_one(queries[i]);
}

Decision DecisionService::decide_one(const Query& q) const {
  if (table_eligible(q)) {
    table_hits_.fetch_add(1, std::memory_order_relaxed);
    return decide_table(q);
  }
  exact_calls_.fetch_add(1, std::memory_order_relaxed);
  return decide_exact(q);
}

void DecisionService::decide(std::span<const Query> queries, std::span<Decision> out) const {
  if (queries.size() != out.size())
    throw std::invalid_argument("policy: decide() spans must have equal size (" +
                                std::to_string(queries.size()) + " queries, " +
                                std::to_string(out.size()) + " slots)");
  for (std::size_t i = 0; i < queries.size(); ++i) out[i] = decide_one(queries[i]);
}

}  // namespace skyferry::policy
