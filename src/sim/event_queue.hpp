// The discrete-event core: a time-ordered queue of callbacks.
//
// Determinism matters more than raw speed here — every experiment must be
// reproducible from its seed — so ties in time are broken by insertion
// sequence number, never by heap internals.
//
// The heap orders small trivially copyable keys {at, seq, slot}; the
// callbacks themselves live in a slab of reusable slots (free list), so
// scheduling an event allocates nothing once the slab has grown to the
// run's peak depth, and sifting the heap never moves a std::function.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace decor::sim {

/// Simulated time in seconds.
using Time = double;

class EventQueue;

/// Cancellation token for a scheduled event: a (slot, generation) pair.
/// Each slot's generation advances when its event runs or is discarded,
/// so a handle whose event is gone no longer matches its slot, and its
/// cancel() cannot touch the event that reuses the slot. Cancelled
/// events stay in the heap and are skipped on pop (lazy deletion); the
/// callable itself is destroyed at cancel(). A handle must not be used
/// after its queue is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Suppresses the event if it is still pending; no-op otherwise.
  void cancel() noexcept;
  bool valid() const noexcept { return queue_ != nullptr; }
  /// True while the event is cancelled and its entry still queued.
  /// A handle whose event already ran (or whose cancelled entry the
  /// queue discarded) is stale and reports false.
  bool cancelled() const noexcept;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Handles point back at the queue.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at` (must not precede the time of
  /// the last popped event).
  EventHandle schedule(Time at, std::function<void()> fn);

  bool empty() { return !prune(); }

  /// Time of the earliest pending (non-cancelled) event.
  Time next_time();

  /// Pops and runs the earliest event; returns its time.
  Time pop_and_run();

  /// Discards cancelled entries at the head; false when no live event
  /// remains. The run loop calls this once per event, then top_time()
  /// and run_top().
  bool prune();
  /// Time of the head; requires a preceding prune() that returned true.
  Time top_time() const noexcept { return heap_.front().at; }
  /// Pops and runs the head; requires a preceding prune() that returned
  /// true. Returns the event's time.
  Time run_top();

  /// Heap entries, including cancelled ones not yet discarded.
  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t scheduled_total() const noexcept { return seq_; }

 private:
  friend class EventHandle;

  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 0;
    bool cancelled = false;
  };

  void pop_key() noexcept;
  /// Returns a slot to the free list and invalidates its handles.
  void release(std::uint32_t slot) noexcept;

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t seq_ = 0;
};

inline void EventHandle::cancel() noexcept {
  if (queue_ == nullptr) return;
  auto& s = queue_->slots_[slot_];
  if (s.gen != gen_ || s.cancelled) return;
  s.cancelled = true;
  s.fn = nullptr;
}

inline bool EventHandle::cancelled() const noexcept {
  if (queue_ == nullptr) return false;
  const auto& s = queue_->slots_[slot_];
  return s.gen == gen_ && s.cancelled;
}

}  // namespace decor::sim
