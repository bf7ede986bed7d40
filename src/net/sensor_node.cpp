#include "net/sensor_node.hpp"

#include "sim/world.hpp"

namespace decor::net {

void SensorNode::on_start() {
  if (params_.enable_arq) {
    link_ = std::make_unique<ReliableLink>(*this, params_.arq);
    link_->start(
        [this](std::uint32_t dst, const sim::Message& msg) {
          return unicast(dst, msg, params_.rc);
        },
        [this](const sim::Message& msg) { broadcast(msg, params_.rc); },
        [this](std::uint32_t peer) {
          // A peer that never acks within the retry budget is gone (or
          // out of range for good): purge it and report the failure just
          // like a heartbeat timeout — much faster, since the ARQ
          // timeout is a fraction of the detector's silence threshold.
          // The declaration lands in the trace so post-hoc analysis
          // (`decor explain` health scores) can count who gave up on
          // whom without the live ArqStats.
          auto& trace = world().trace();
          if (trace.enabled()) {
            trace.record(world().sim().now(), sim::TraceKind::kProtocol, id(),
                         "dead-peer=" + std::to_string(peer));
          }
          const auto entry = table_.get(peer);
          table_.forget(peer);
          if (data_plane_) data_plane_->on_peer_dead(peer);
          if (entry) on_neighbor_failed(peer, entry->pos);
        });
    if (arq_stats_) link_->set_stats(arq_stats_);
  }
  if (params_.data_plane.enabled) {
    data_plane_ =
        std::make_unique<DataPlane>(*this, params_.rc, params_.data_plane);
    if (data_stats_) data_plane_->set_stats(data_stats_);
    data_plane_->start([this](std::uint32_t dst, sim::Message msg) {
      send_reliable(dst, std::move(msg));
    });
  }
  // Announce ourselves and ask established neighbors to introduce
  // themselves back — a freshly deployed replacement node must learn the
  // neighborhood it landed in.
  send_hello(/*solicit_reply=*/true);
  if (params_.enable_heartbeat) {
    detector_ = std::make_unique<HeartbeatDetector>(*this, params_.heartbeat,
                                                    table_);
    detector_->start([this] { send_heartbeat(); },
                     [this](std::uint32_t id, geom::Point2 pos) {
                       // Under a fault plan the silent peer may come back
                       // with fresh state; drop our dedup memory of it so
                       // the new incarnation's frames deliver (gated like
                       // the ARQ give-up purge — see ReliableLinkParams).
                       if (link_ && params_.arq.purge_on_give_up) {
                         link_->forget_peer(id);
                       }
                       on_neighbor_failed(id, pos);
                     });
  }
}

void SensorNode::on_stop() {
  // Conservation bookkeeping: frames this node still had in flight will
  // never complete; count them as abandoned while the link state is
  // still reachable.
  if (link_) link_->host_died();
}

void SensorNode::send_hello(bool solicit_reply) {
  broadcast(sim::Message::make(
                id(), kHello,
                HelloExtPayload{pos(), solicit_reply, boot_time()},
                wire_size(kHello)),
            params_.rc);
}

void SensorNode::send_heartbeat() {
  broadcast(sim::Message::make(
                id(), kHeartbeat,
                HeartbeatPayload{pos(), heartbeat_cell(), boot_time()},
                wire_size(kHeartbeat)),
            params_.rc);
}

void SensorNode::send_reliable(std::uint32_t dst, sim::Message msg) {
  msg.src = id();
  if (link_) {
    link_->send(dst, std::move(msg));
    return;
  }
  // ARQ disabled: best effort, and a dead/out-of-range destination has
  // no recovery path by construction.
  (void)unicast(dst, msg, params_.rc);
}

void SensorNode::broadcast_reliable(sim::Message msg) {
  msg.src = id();
  if (link_) {
    std::vector<std::uint32_t> expected;
    for (const auto& [nid, entry] : table_.snapshot()) {
      (void)entry;
      expected.push_back(nid);
    }
    link_->send_to_all(std::move(msg), std::move(expected));
    return;
  }
  broadcast(msg, params_.rc);
}

void SensorNode::observe(std::uint32_t from, geom::Point2 p, double boot) {
  const bool fresh = table_.observe(from, p, world().sim().now());
  // Reboot-with-amnesia detection: a later boot stamp on a known peer id
  // means the peer restarted with fresh protocol state. Its new seq
  // space must not be filtered through dedup state of the previous
  // incarnation, and any route through it is stale. Never triggers in
  // reboot-free runs (a given id's boot stamp is constant).
  const std::size_t at = id_lower_bound(peer_boot_, from);
  if (at == peer_boot_.size() || peer_boot_[at].first != from) {
    peer_boot_.insert(peer_boot_.begin() + static_cast<std::ptrdiff_t>(at),
                      {from, boot});
  } else if (boot > peer_boot_[at].second) {
    peer_boot_[at].second = boot;
    if (link_) link_->forget_peer(from);
    if (data_plane_) data_plane_->on_peer_dead(from);
  }
  if (fresh) on_neighbor_discovered(from, p);
}

void SensorNode::on_message(const sim::Message& msg) {
  if (link_) {
    switch (link_->on_frame(msg)) {
      case ReliableLink::RxAction::kAckConsumed:
      case ReliableLink::RxAction::kDuplicate:
        return;
      case ReliableLink::RxAction::kDeliver:
        break;
    }
  }
  switch (msg.kind) {
    case kHello: {
      const auto& p = msg.as<HelloExtPayload>();
      observe(msg.src, p.pos, p.boot);
      if (p.solicit_reply) {
        // Introduce ourselves to the newcomer only (unicast keeps the
        // O(neighbors^2) hello storm away). Best-effort on purpose: a
        // lost reply is repaired by the next heartbeat.
        (void)unicast(
            msg.src,
            sim::Message::make(id(), kHello,
                               HelloExtPayload{pos(), false, boot_time()},
                               wire_size(kHello)),
            params_.rc);
      }
      break;
    }
    case kHeartbeat: {
      const auto& p = msg.as<HeartbeatPayload>();
      observe(msg.src, p.pos, p.boot);
      handle_message(msg);  // subclasses may track cells from heartbeats
      break;
    }
    default:
      if (data_plane_ && data_plane_->on_message(msg)) break;
      handle_message(msg);
      break;
  }
}

}  // namespace decor::net
