#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

namespace skyferry::sim {

void Simulator::reserve(std::size_t events) {
  heap_.reserve(events);
  if (slots_.size() < events) {
    const std::uint32_t old = static_cast<std::uint32_t>(slots_.size());
    slots_.resize(events);
    free_slots_.reserve(events);
    // Hand out low indices first: push the new tail in reverse.
    for (std::uint32_t i = static_cast<std::uint32_t>(events); i > old; --i) {
      free_slots_.push_back(i - 1);
    }
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  free_slots_.push_back(slot);
}

EventId Simulator::schedule(double delay_s, EventFn fn) {
  if (!std::isfinite(delay_s)) {
    ++rejected_nonfinite_;
    return 0;
  }
  return schedule_at(now_ + std::max(delay_s, 0.0), std::move(fn));
}

EventId Simulator::schedule_at(double t_s, EventFn fn) {
  if (!std::isfinite(t_s)) {
    ++rejected_nonfinite_;
    return 0;
  }
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(HeapEntry{std::max(t_s, now_), next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return encode(slot, s.gen);
}

bool Simulator::cancel(EventId id) {
  if (id == 0) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu) - 1u;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  if (slots_[slot].gen != gen) return false;  // executed, cancelled, or recycled
  // The heap placeholder stays behind and is skipped when it surfaces;
  // the slot itself is recycled immediately (the bumped generation keeps
  // the stale placeholder from matching the slot's next tenant).
  release_slot(slot);
  assert(live_count_ > 0);
  --live_count_;
  return true;
}

bool Simulator::execute_top() {
  const HeapEntry ev = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Slot& s = slots_[ev.slot];
  if (s.gen != ev.gen) return false;  // cancelled placeholder
  assert(ev.t >= now_);
  now_ = ev.t;
  ++executed_;
  --live_count_;
  // Vacate the slot before running: the callable may schedule new events
  // (which may legitimately reuse this slot under its new generation).
  EventFn fn = std::move(s.fn);
  release_slot(ev.slot);
  fn();
  return true;
}

bool Simulator::step() {
  while (!heap_.empty()) {
    if (execute_top()) return true;
  }
  return false;
}

void Simulator::run_until(double t_end_s) {
  stop_ = false;
  while (!stop_ && !heap_.empty() && heap_.front().t <= t_end_s) execute_top();
  if (!stop_ && now_ < t_end_s) now_ = t_end_s;
}

void Simulator::run() {
  stop_ = false;
  while (!stop_ && !heap_.empty()) execute_top();
}

void Simulator::reset() {
  heap_.clear();
  free_slots_.clear();
  free_slots_.reserve(slots_.size());
  // Retire every slot's current generation so EventIds issued before the
  // reset can never cancel a post-reset tenant.
  for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size()); i > 0; --i) {
    Slot& s = slots_[i - 1];
    s.fn = nullptr;
    ++s.gen;
    free_slots_.push_back(i - 1);
  }
  live_count_ = 0;
  now_ = 0.0;
  executed_ = 0;
  rejected_nonfinite_ = 0;
}

EventId schedule_periodic(Simulator& sim, double period_s, std::function<bool()> fn) {
  // Self-rescheduling tick; each scheduled copy owns a reference to fn, so
  // the chain frees itself when fn() returns false (no shared_ptr cycle).
  struct Tick {
    Simulator* sim;
    double period;
    std::shared_ptr<std::function<bool()>> fn;
    void operator()() const {
      if ((*fn)()) sim->schedule(period, Tick{sim, period, fn});
    }
  };
  return sim.schedule(period_s,
                      Tick{&sim, period_s, std::make_shared<std::function<bool()>>(std::move(fn))});
}

}  // namespace skyferry::sim
