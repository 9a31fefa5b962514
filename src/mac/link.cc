#include "mac/link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace skyferry::mac {

GeometryFn static_geometry(double distance_m, double relative_speed_mps) {
  return [distance_m, relative_speed_mps](double) {
    return Geometry{distance_m, relative_speed_mps};
  };
}

std::shared_ptr<phy::PerTableCache> make_shared_per_tables(const LinkConfig& cfg) {
  return std::make_shared<phy::PerTableCache>(cfg.channel.spatial_correlation);
}

LinkSimulator::LinkSimulator(LinkConfig cfg, RateController& rate_control, std::uint64_t seed)
    : cfg_(cfg),
      rc_(rate_control),
      channel_(cfg.channel, sim::derive_seed(seed, "channel")),
      error_model_(cfg.channel.spatial_correlation),
      rng_(sim::derive_seed(seed, "mac")),
      tables_(cfg.channel.spatial_correlation),
      table_src_(cfg_.shared_tables ? cfg_.shared_tables.get() : &tables_),
      airtime_(cfg.timing, cfg.ampdu, cfg.mpdu, cfg.channel.width, cfg.channel.gi) {
  // Every caller-supplied cache (wifi backend sessions, fault::MissionTrial,
  // the benches) enters through here.
  if (cfg_.shared_tables && !cfg_.shared_tables->serves(cfg_.channel.spatial_correlation)) {
    throw std::invalid_argument(
        "mac::LinkSimulator: shared_tables was built for spatial correlation " +
        std::to_string(cfg_.shared_tables->spatial_correlation()) + ", the channel has " +
        std::to_string(cfg_.channel.spatial_correlation));
  }
}

FrameErrors LinkSimulator::data_errors(int mcs) {
  if (cfg_.fidelity == LinkFidelity::kPerMpdu) {
    return {nullptr, &error_model_, cfg_.mpdu.mpdu_bits(), cfg_.per_mpdu_snr_jitter_db};
  }
  // Jitter-marginalized at build time: per() then answers the per-MPDU
  // jitter marginal in a single lookup.
  const phy::PerTable*& slot = data_tables_[static_cast<std::size_t>(mcs)];
  if (slot == nullptr) {
    slot = &table_src_->table(phy::mcs(mcs), cfg_.mpdu.mpdu_bits(), cfg_.per_mpdu_snr_jitter_db);
  }
  return {slot, nullptr, 0, 0.0};
}

FrameErrors LinkSimulator::ba_errors() {
  if (cfg_.fidelity == LinkFidelity::kPerMpdu) return {nullptr, &error_model_, kBlockAckBits, 0.0};
  if (ba_table_ == nullptr) ba_table_ = &table_src_->table(phy::mcs(0), kBlockAckBits);
  return {ba_table_, nullptr, 0, 0.0};
}

LinkRunResult LinkSimulator::run_saturated(double duration_s, const GeometryFn& geometry) {
  return run_internal(std::numeric_limits<std::uint64_t>::max(), duration_s, geometry);
}

LinkRunResult LinkSimulator::run_transfer(std::uint64_t payload_bytes, double max_duration_s,
                                          const GeometryFn& geometry) {
  return run_internal(payload_bytes, max_duration_s, geometry);
}

LinkRunResult LinkSimulator::run_internal(std::uint64_t payload_bytes_limit, double duration_s,
                                          const GeometryFn& geometry) {
  LinkRunResult res;
  const std::uint64_t payload_bits_limit =
      (payload_bytes_limit == std::numeric_limits<std::uint64_t>::max())
          ? payload_bytes_limit
          : payload_bytes_limit * 8;

  double t = 0.0;
  int retry_stage = 0;
  std::uint64_t window_bits = 0;
  double window_start = 0.0;

  const int payload_bits_per_mpdu = cfg_.mpdu.payload_bits();

  // An infinite (or non-positive) meter window disables throughput
  // sampling entirely — Monte-Carlo consumers only want the totals.
  const bool metering = std::isfinite(cfg_.meter_window_s) && cfg_.meter_window_s > 0.0;
  if (metering && std::isfinite(duration_s)) {
    const auto windows = static_cast<std::size_t>(std::min(
        duration_s / cfg_.meter_window_s + 2.0, 1e6));
    res.samples.reserve(windows);
    res.transfer_curve_mb.reserve(windows);
  }

  auto flush_window = [&](double now) {
    const double span = now - window_start;
    if (span <= 0.0) return;
    res.samples.push_back({now, static_cast<double>(window_bits) / span / 1e6});
    res.transfer_curve_mb.push_back(
        {now, static_cast<double>(res.payload_bits_delivered) / 8e6});
    window_bits = 0;
    window_start = now;
  };

  while (t < duration_s && res.payload_bits_delivered < payload_bits_limit) {
    const Geometry g = geometry(t);
    const int mcs_index = rc_.select_mcs(t);

    // Remaining backlog in MPDUs (saturated runs: unbounded).
    int backlog = cfg_.ampdu.max_subframes;
    if (payload_bits_limit != std::numeric_limits<std::uint64_t>::max()) {
      const std::uint64_t remaining_bits = payload_bits_limit - res.payload_bits_delivered;
      backlog = static_cast<int>(std::min<std::uint64_t>(
          (remaining_bits + payload_bits_per_mpdu - 1) / payload_bits_per_mpdu,
          static_cast<std::uint64_t>(cfg_.ampdu.max_subframes)));
    }

    // One SNR draw governs the aggregate (all subframes share the fade);
    // per-MPDU jitter (frequency selectivity) decorrelates subframe fates.
    const double snr_db = channel_.snr_db(t, g.distance_m, g.relative_speed_mps);
    const TxFeedback fb = ampdu_exchange(airtime_, mcs_index, backlog, snr_db,
                                         data_errors(mcs_index), ba_errors(), rng_);
    const auto delivered_bits =
        static_cast<std::uint64_t>(fb.delivered) * static_cast<std::uint64_t>(payload_bits_per_mpdu);
    res.mpdus_attempted += static_cast<std::uint64_t>(fb.attempted);
    res.mpdus_delivered += static_cast<std::uint64_t>(fb.delivered);
    res.payload_bits_delivered += delivered_bits;
    window_bits += delivered_bits;
    ++res.exchanges;

    rc_.report(t, fb);

    retry_stage = (fb.delivered == 0) ? std::min(retry_stage + 1, cfg_.timing.retry_limit) : 0;

    t += airtime_.exchange_s(mcs_index, fb.attempted, retry_stage);

    if (metering && t - window_start >= cfg_.meter_window_s) flush_window(t);
  }

  if (metering) flush_window(t);
  res.duration_s = t;
  res.completed = res.payload_bits_delivered >= payload_bits_limit ||
                  payload_bits_limit == std::numeric_limits<std::uint64_t>::max();
  if (!res.completed) res.incomplete_reason = IncompleteReason::kTimeLimit;
  return res;
}

}  // namespace skyferry::mac
