#include "net/arq.h"

#include <algorithm>

namespace skyferry::net {

ArqSender::ArqSender(ArqConfig cfg, std::uint32_t total_packets, FlowId flow) noexcept
    : cfg_(cfg), total_(total_packets), flow_(flow), state_(total_packets, State::kUnsent) {}

void ArqSender::ack_one(std::uint32_t seq) noexcept {
  State& st = state_[seq];
  if (st == State::kAcked) return;
  if (st == State::kInFlight) --in_flight_;
  st = State::kAcked;
  ++acked_count_;
}

void ArqSender::advance_base() noexcept {
  while (base_ < total_ && state_[base_] == State::kAcked) ++base_;
}

std::optional<Packet> ArqSender::next_packet(double now_s) {
  if (complete()) return std::nullopt;
  if (in_flight_ >= cfg_.window) return std::nullopt;

  auto make = [&](std::uint32_t seq, bool retx) {
    // A stale ack may have acked a packet that was never sent; sending it
    // anyway reopens the acked prefix at that sequence.
    if (state_[seq] == State::kAcked) base_ = std::min(base_, seq);
    state_[seq] = State::kInFlight;
    ++in_flight_;
    ++transmissions_;
    if (retx) ++retransmissions_;
    Packet p;
    p.flow = flow_;
    p.seq = seq;
    p.payload_bytes = cfg_.datagram_bytes;
    p.created_t_s = now_s;
    return p;
  };

  // Gaps first (selective repeat), lowest sequence first.
  for (std::uint32_t s = std::max(base_, nack_lo_); s < next_new_; ++s) {
    if (state_[s] == State::kNacked) {
      nack_lo_ = s + 1;
      return make(s, true);
    }
  }
  nack_lo_ = next_new_;
  if (next_new_ < total_) {
    const std::uint32_t s = next_new_++;
    return make(s, false);
  }
  return std::nullopt;
}

void ArqSender::on_ack(const SelectiveAck& ack) {
  const std::uint32_t cum = std::min(ack.cumulative, total_);
  for (std::uint32_t s = base_; s < cum; ++s) ack_one(s);
  base_ = std::max(base_, cum);
  for (std::uint32_t i = 0; i < ack.window_bitmap.size(); ++i) {
    const std::uint32_t s = cum + i;
    if (s >= total_) break;
    if (ack.window_bitmap[i]) {
      ack_one(s);
    } else if (state_[s] == State::kInFlight && s < next_new_) {
      // Reported missing: schedule a retransmission.
      state_[s] = State::kNacked;
      --in_flight_;
      nack_lo_ = std::min(nack_lo_, s);
    }
  }
  advance_base();
}

bool ArqSender::complete() const noexcept { return acked_count_ == total_; }

void ArqSender::on_timeout() noexcept {
  for (std::uint32_t s = base_; in_flight_ > 0 && s < next_new_; ++s) {
    if (state_[s] == State::kInFlight) {
      state_[s] = State::kNacked;
      --in_flight_;
      nack_lo_ = std::min(nack_lo_, s);
    }
  }
}

ArqSenderState ArqSender::checkpoint() const {
  ArqSenderState st;
  st.total = total_;
  st.acked.resize(total_, false);
  for (std::uint32_t s = 0; s < total_; ++s) st.acked[s] = (state_[s] == State::kAcked);
  st.frontier = next_new_;
  st.transmissions = transmissions_;
  st.retransmissions = retransmissions_;
  return st;
}

ArqSender ArqSender::resume(ArqConfig cfg, const ArqSenderState& st, FlowId flow) {
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
  s.advance_base();
  s.transmissions_ = st.transmissions;
  s.retransmissions_ = st.retransmissions;
  return s;
}

ArqReceiver::ArqReceiver(ArqConfig cfg, std::uint32_t total_packets) noexcept
    : cfg_(cfg), total_(total_packets), received_(total_packets, false) {}

SelectiveAck ArqReceiver::make_ack() const {
  SelectiveAck ack;
  ack.cumulative = cumulative_;
  const std::uint32_t span = std::min(cfg_.window, total_ - cumulative_);
  ack.window_bitmap.reserve(span);
  for (std::uint32_t i = 0; i < span; ++i) ack.window_bitmap.push_back(received_[cumulative_ + i]);
  return ack;
}

ArqReceiverState ArqReceiver::checkpoint() const {
  ArqReceiverState st;
  st.total = total_;
  st.received = received_;
  st.duplicates = duplicates_;
  return st;
}

ArqReceiver ArqReceiver::resume(ArqConfig cfg, const ArqReceiverState& st) {
  ArqReceiver r(cfg, st.total);
  const std::uint32_t n = std::min<std::uint32_t>(st.total,
                                                  static_cast<std::uint32_t>(st.received.size()));
  for (std::uint32_t i = 0; i < n; ++i) {
    if (st.received[i]) {
      r.received_[i] = true;
      ++r.received_count_;
    }
  }
  while (r.cumulative_ < r.total_ && r.received_[r.cumulative_]) ++r.cumulative_;
  r.duplicates_ = st.duplicates;
  return r;
}

std::optional<SelectiveAck> ArqReceiver::on_packet(const Packet& p) {
  if (p.seq >= total_) return std::nullopt;
  if (received_[p.seq]) {
    ++duplicates_;
  } else {
    received_[p.seq] = true;
    ++received_count_;
    while (cumulative_ < total_ && received_[cumulative_]) ++cumulative_;
  }
  if (++since_ack_ >= cfg_.ack_every || complete()) {
    since_ack_ = 0;
    return make_ack();
  }
  return std::nullopt;
}

}  // namespace skyferry::net
