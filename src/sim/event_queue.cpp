#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace decor::sim {

EventHandle EventQueue::schedule(Time at, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Key{at, seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle(this, slot, s.gen);
}

void EventQueue::pop_key() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void EventQueue::release(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  ++s.gen;
  s.cancelled = false;
  free_.push_back(slot);
}

bool EventQueue::prune() {
  while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
    const std::uint32_t slot = heap_.front().slot;
    pop_key();
    release(slot);
  }
  return !heap_.empty();
}

Time EventQueue::next_time() {
  DECOR_REQUIRE_MSG(prune(), "next_time on empty event queue");
  return top_time();
}

Time EventQueue::pop_and_run() {
  DECOR_REQUIRE_MSG(prune(), "pop on empty event queue");
  return run_top();
}

Time EventQueue::run_top() {
  const Key top = heap_.front();
  pop_key();
  // Take the callable out and recycle the slot before running: the
  // callback may schedule further events, which can reuse this slot or
  // grow the slab (moving every stored std::function).
  std::function<void()> fn;
  fn.swap(slots_[top.slot].fn);
  release(top.slot);
  fn();
  return top.at;
}

}  // namespace decor::sim
