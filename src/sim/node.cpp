#include "sim/node.hpp"

#include "sim/world.hpp"

namespace decor::sim {

void NodeProcess::broadcast(Message msg, double range) {
  msg.src = id_;
  // Stamp unstamped messages here, where every application-level send
  // funnels through; forwarded/retransmitted frames arrive pre-stamped
  // and keep their causality id.
  if (msg.trace_id == 0) msg.trace_id = world_->mint_trace_id();
  world_->radio().broadcast(*this, msg, range);
}

bool NodeProcess::unicast(std::uint32_t dst, Message msg, double range) {
  msg.src = id_;
  if (msg.trace_id == 0) msg.trace_id = world_->mint_trace_id();
  return world_->radio().unicast(*this, dst, msg, range);
}

EventHandle NodeProcess::schedule_timer(Time delay,
                                        std::function<void()> fn) {
  return world_->sim().schedule(delay, std::move(fn));
}

}  // namespace decor::sim
