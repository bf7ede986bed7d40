#include "net/heartbeat.hpp"

#include "common/require.hpp"
#include "sim/world.hpp"

namespace decor::net {

HeartbeatDetector::HeartbeatDetector(sim::NodeProcess& host,
                                     HeartbeatParams params,
                                     NeighborTable& table)
    : host_(host), params_(params), table_(table) {
  DECOR_REQUIRE_MSG(params_.period > 0.0, "heartbeat period must be > 0");
  DECOR_REQUIRE_MSG(params_.timeout_periods > 1.0,
                    "timeout must exceed one period");
}

void HeartbeatDetector::start(std::function<void()> send_beat,
                              FailureCallback on_failure) {
  send_beat_ = std::move(send_beat);
  on_failure_ = std::move(on_failure);
  // Random phase offset: without it every node beats at the same instant
  // and the radio sees huge synchronized bursts.
  const double phase = host_.world().rng().uniform(0.0, params_.period);
  host_.world().sim().schedule(phase, [this] {
    if (host_.alive()) tick();
  });
}

void HeartbeatDetector::tick() {
  if (send_beat_) send_beat_();
  const sim::Time now = host_.world().sim().now();
  const sim::Time deadline = now - params_.period * params_.timeout_periods;
  for (std::uint32_t id : table_.stale(deadline)) {
    const auto entry = table_.get(id);
    table_.forget(id);
    if (on_failure_ && entry) on_failure_(id, entry->pos);
  }
  host_.world().sim().schedule(params_.period, [this] {
    if (host_.alive()) tick();
  });
}

}  // namespace decor::net
