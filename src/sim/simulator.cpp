#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace heron::sim {

void Simulator::spawn(Task<void> task, const Incarnation* scope) {
  task.set_scope(scope);
  task.start();
  if (!task.done()) roots_.push_back(std::move(task));
  // Lazy cleanup so long runs with many short-lived roots don't grow.
  if (roots_.size() > 64) reap_roots();
}

void Simulator::reap_roots() {
  std::erase_if(roots_, [](const Task<void>& t) { return t.done(); });
}

void Simulator::step(Event&& ev) {
  now_ = ev.when;
  ++events_executed_;
  ev.fn();
}

void Simulator::run() {
  while (!queue_.empty()) step(queue_.pop());
  reap_roots();
}

void Simulator::run_until(Nanos deadline) {
  while (!queue_.empty() && queue_.next_when() <= deadline) {
    step(queue_.pop());
  }
  now_ = std::max(now_, deadline);
  reap_roots();
}

Simulator::TimerToken Simulator::schedule_timer_at(Nanos when, EventFn fn) {
  std::uint32_t slot;
  if (!timer_free_.empty()) {
    slot = timer_free_.back();
    timer_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(timer_slots_.size());
    timer_slots_.emplace_back();
  }
  TimerSlot& ts = timer_slots_[slot];
  ts.fn = std::move(fn);
  const std::uint32_t gen = ts.gen;
  schedule_at(when, [this, slot, gen] { fire_timer(slot, gen); });
  return TimerToken{slot, gen};
}

bool Simulator::cancel_timer(TimerToken& token) {
  if (!token.armed()) return false;
  TimerSlot& ts = timer_slots_[token.slot];
  const bool live = ts.gen == token.gen;
  if (live) {
    ++ts.gen;  // the queued shell finds a stale generation and no-ops
    ts.fn = EventFn{};
    timer_free_.push_back(token.slot);
  }
  token = TimerToken{};
  return live;
}

void Simulator::fire_timer(std::uint32_t slot, std::uint32_t gen) {
  TimerSlot& ts = timer_slots_[slot];
  if (ts.gen != gen) return;  // canceled (or recycled) since scheduling
  ++ts.gen;
  EventFn fn = std::move(ts.fn);
  ts.fn = EventFn{};
  timer_free_.push_back(slot);
  fn();
}

}  // namespace heron::sim
