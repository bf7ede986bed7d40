#include "sim/simulator.hpp"

#include "common/profile.hpp"
#include "common/require.hpp"

namespace decor::sim {

namespace {
common::Histogram& drain_hist() {
  static common::Histogram& h =
      common::profile_histogram("profile.sim.drain_us");
  return h;
}
}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

EventHandle Simulator::schedule(Time delay, std::function<void()> fn) {
  DECOR_REQUIRE_MSG(delay >= 0.0, "cannot schedule into the past");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(Time at, std::function<void()> fn) {
  DECOR_REQUIRE_MSG(at >= now_, "cannot schedule into the past");
  return queue_.schedule(at, std::move(fn));
}

void Simulator::run() {
  common::ProfileScope profile(drain_hist());
  stopped_ = false;
  while (!stopped_ && queue_.prune()) {
    // Advance the clock before running the event so the callback observes
    // its own timestamp (and schedules relative to it).
    now_ = queue_.top_time();
    queue_.run_top();
    ++executed_;
  }
}

void Simulator::run_until(Time until) {
  DECOR_REQUIRE_MSG(until >= now_, "run_until into the past");
  common::ProfileScope profile(drain_hist());
  stopped_ = false;
  while (!stopped_ && queue_.prune() && queue_.top_time() <= until) {
    now_ = queue_.top_time();
    queue_.run_top();
    ++executed_;
  }
  if (!stopped_) now_ = until;
}

}  // namespace decor::sim
