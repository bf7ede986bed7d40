#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/require.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace decor::sim;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertion) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool ran = false;
  auto h = q.schedule(1.0, [&] { ran = true; });
  h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  auto h = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  h.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void(Time)> chain = [&](Time t) {
    ++fired;
    if (fired < 5) {
      q.schedule(t + 1.0, [&chain, t] { chain(t + 1.0); });
    }
  };
  q.schedule(0.0, [&chain] { chain(0.0); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 5);
}

TEST(EventQueue, PopMovesCallbackOutOfHeap) {
  // Regression: pop_and_run used to copy the heap top (const ref from
  // priority_queue::top()), cloning every callback's capture state on
  // dispatch. Count copies of a tracked callable through the full
  // schedule -> pop -> run path: moves are fine, copies are not.
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
    CopyCounter& operator=(const CopyCounter&) = delete;
    CopyCounter& operator=(CopyCounter&&) = delete;
    void operator()() const {}
  };
  EventQueue q;
  int copies = 0;
  q.schedule(1.0, std::function<void()>(CopyCounter(&copies)));
  const int copies_after_schedule = copies;
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(copies, copies_after_schedule)
      << "pop_and_run must not copy the scheduled callable";
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop_and_run(), decor::common::RequireError);
  EXPECT_THROW(q.next_time(), decor::common::RequireError);
}

TEST(EventQueue, StaleHandleCannotCancelTheSlotsNextEvent) {
  // Callbacks live in recycled slots: once an event has run, its handle
  // is stale. It must report not-cancelled, and its cancel() must not
  // reach the event that reuses the slot.
  EventQueue q;
  int first = 0;
  int second = 0;
  auto h = q.schedule(1.0, [&] { ++first; });
  q.pop_and_run();
  EXPECT_TRUE(h.valid());
  EXPECT_FALSE(h.cancelled());
  auto next = q.schedule(2.0, [&] { ++second; });
  h.cancel();
  EXPECT_FALSE(h.cancelled());
  EXPECT_FALSE(next.cancelled());
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(EventQueue, DiscardedCancelledSlotIsReusedSafely) {
  // A cancelled entry frees its slot when the queue discards it; a second
  // cancel() through the old handle must not hit the slot's new event.
  EventQueue q;
  bool ran = false;
  auto h = q.schedule(1.0, [] {});
  h.cancel();
  EXPECT_TRUE(h.cancelled());
  EXPECT_TRUE(q.empty());  // discards the cancelled entry
  auto next = q.schedule(1.5, [&] { ran = true; });
  h.cancel();
  EXPECT_FALSE(next.cancelled());
  while (!q.empty()) q.pop_and_run();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, CancellingTheRunningEventSparesItsSuccessor) {
  // A callback that reschedules itself gets its own (just freed) slot
  // back; cancelling the running event's handle from inside the callback
  // must leave the successor alone.
  EventQueue q;
  int fired = 0;
  EventHandle self;
  self = q.schedule(1.0, [&] {
    ++fired;
    q.schedule(2.0, [&] { ++fired; });
    self.cancel();
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelReleasesTheCallable) {
  // cancel() destroys the callable at once instead of holding its
  // captures until the dead entry reaches the head of the heap.
  EventQueue q;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  auto h = q.schedule(5.0, [token] { (void)token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  h.cancel();
  EXPECT_TRUE(watch.expired());
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(2.5, [&] { times.push_back(sim.now()); });
  sim.schedule(1.0, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, RelativeSchedulingCompounds) {
  Simulator sim;
  double second_fire = 0.0;
  sim.schedule(1.0, [&] {
    sim.schedule(2.0, [&] { second_fire = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(second_fire, 3.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule(2.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), decor::common::RequireError);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), decor::common::RequireError);
}

TEST(Simulator, DeterministicRngFromSeed) {
  Simulator a(7), b(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.rng()(), b.rng()());
}

TEST(Simulator, CancelledHandleReportsState) {
  Simulator sim;
  auto h = sim.schedule(1.0, [] {});
  EXPECT_TRUE(h.valid());
  EXPECT_FALSE(h.cancelled());
  h.cancel();
  EXPECT_TRUE(h.cancelled());
  EXPECT_FALSE(EventHandle{}.valid());
}

}  // namespace
