#include "sim/radio.hpp"

#include <algorithm>
#include <cmath>

#include "common/metrics.hpp"
#include "geometry/point.hpp"
#include "sim/node.hpp"
#include "sim/world.hpp"

namespace decor::sim {

namespace {

// Handles resolved once; each call site then costs one relaxed atomic
// load (the enable flag) when metrics are off.
common::Counter& tx_counter() {
  static common::Counter& c = common::metrics().counter("sim.radio.tx");
  return c;
}
common::Counter& rx_counter() {
  static common::Counter& c = common::metrics().counter("sim.radio.rx");
  return c;
}
common::Counter& drop_counter() {
  static common::Counter& c = common::metrics().counter("sim.radio.drop");
  return c;
}
common::Counter& collision_counter() {
  static common::Counter& c =
      common::metrics().counter("sim.radio.collision");
  return c;
}
common::Gauge& in_flight_gauge() {
  static common::Gauge& g = common::metrics().gauge("sim.radio.in_flight");
  return g;
}

}  // namespace

Radio::Radio(World& world, RadioParams params)
    : world_(world), params_(std::move(params)) {
  if (params_.propagation) params_.propagation = params_.propagation->clone();
}

void Radio::note_node(std::uint32_t id) {
  if (id >= tx_.size()) {
    tx_.resize(id + 1, 0);
    rx_.resize(id + 1, 0);
  }
}

std::uint64_t Radio::tx_count(std::uint32_t id) const {
  return id < tx_.size() ? tx_[id] : 0;
}

std::uint64_t Radio::rx_count(std::uint32_t id) const {
  return id < rx_.size() ? rx_[id] : 0;
}

void Radio::charge_tx(NodeProcess& src, const Message& msg) {
  note_node(src.id());
  ++tx_[src.id()];
  ++total_tx_;
  tx_counter().inc();
  world_.charge(src.id(),
                src.budget_.tx_base_j +
                    src.budget_.tx_per_byte_j *
                        static_cast<double>(msg.size_bytes));
  if (world_.trace().enabled()) {
    world_.trace().record_message(world_.sim().now(), TraceKind::kTx, src.id(),
                                  TraceShape::kKind, msg.kind, msg.src,
                                  msg.trace_id);
  }
}

std::uint64_t Radio::add_partition(CutPredicate cut) {
  const std::uint64_t handle = next_cut_handle_++;
  cuts_.emplace_back(handle, std::move(cut));
  return handle;
}

void Radio::remove_partition(std::uint64_t handle) {
  std::erase_if(cuts_, [handle](const auto& c) { return c.first == handle; });
}

bool Radio::pair_cut(std::uint32_t a, std::uint32_t b) const {
  for (const auto& [handle, cut] : cuts_) {
    if (cut(a, b)) return true;
  }
  return false;
}

bool Radio::frame_reaches(const NodeProcess& src, std::uint32_t dst,
                          double range) {
  // Partition cuts are deterministic and checked before any randomness,
  // so partition-free runs keep a byte-identical RNG sequence.
  if (!cuts_.empty() && pair_cut(src.id(), dst)) {
    ++partition_blocked_;
    return false;
  }
  // Random loss and propagation fading both gate the frame.
  if (params_.loss_prob > 0.0 && world_.rng().bernoulli(params_.loss_prob)) {
    return false;
  }
  if (params_.propagation) {
    return params_.propagation->received(src.pos(), world_.position(dst),
                                         range, world_.rng());
  }
  return geom::distance_sq(src.pos(), world_.position(dst)) <=
         range * range;
}

void Radio::deliver_later(std::uint32_t dst, const Message& msg) {
  const double latency =
      params_.latency_base +
      (params_.jitter > 0.0 ? world_.rng().uniform(0.0, params_.jitter)
                            : 0.0);
  // Corruption fault: per-bit flips aggregate into one per-frame CRC
  // failure probability. The draw only happens while a corruption
  // window is active, so fault-free runs keep their RNG sequence.
  bool crc_failed = false;
  if (corruption_ber_ > 0.0) {
    const double p_frame =
        1.0 - std::pow(1.0 - corruption_ber_,
                       8.0 * static_cast<double>(msg.size_bytes));
    crc_failed = world_.rng().bernoulli(p_frame);
  }
  const double start = world_.sim().now() + latency;
  const double airtime =
      params_.bitrate_bps > 0.0
          ? static_cast<double>(msg.size_bytes) * 8.0 / params_.bitrate_bps
          : 0.0;
  const double end = start + airtime;

  std::uint32_t slot;
  if (free_frames_.empty()) {
    slot = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  } else {
    slot = free_frames_.back();
    free_frames_.pop_back();
  }
  Frame& frame = frames_[slot];
  frame.msg = msg;
  frame.dst = dst;
  frame.crc_failed = crc_failed;
  frame.collided = false;
  frame.refs = 1;

  if (params_.bitrate_bps > 0.0) {
    // Receiver-side collision check: overlapping frames destroy each
    // other. Prune arrivals that finished in the past first; their
    // deliveries have run, so the list holds their slots' last
    // reference.
    if (dst >= inbound_.size()) inbound_.resize(dst + 1);
    auto& on_air = inbound_[dst];
    const double now = world_.sim().now();
    std::erase_if(on_air, [this, now](const Airtime& a) {
      if (a.end >= now) return false;
      unref(a.frame);
      return true;
    });
    for (const Airtime& a : on_air) {
      if (start < a.end && a.start < end) {
        Frame& other = frames_[a.frame];
        if (!other.collided) {
          ++collisions_;
          collision_counter().inc();
          other.collided = true;
        }
        if (!frame.collided) {
          ++collisions_;
          collision_counter().inc();
          frame.collided = true;
        }
      }
    }
    on_air.push_back(Airtime{start, end, slot});
    ++frame.refs;
  }

  in_flight_gauge().add(1.0);
  world_.sim().schedule_at(end, [this, slot] { receive(slot); });
}

void Radio::unref(std::uint32_t slot) noexcept {
  if (--frames_[slot].refs == 0) free_frames_.push_back(slot);
}

void Radio::receive(std::uint32_t slot) {
  in_flight_gauge().add(-1.0);
  // Take the message out and drop the delivery's reference first:
  // on_message may transmit, which can reuse the slot or grow the slab.
  Frame& frame = frames_[slot];
  const Message msg = std::move(frame.msg);
  const std::uint32_t dst = frame.dst;
  const bool crc_failed = frame.crc_failed;
  const bool collided = frame.collided;
  unref(slot);
  if (collided) return;  // destroyed by a colliding frame
  NodeProcess& node = world_.node(dst);
  if (!node.alive()) return;  // died in flight
  if (crc_failed) {
    // The frame reached the receiver (rx energy is spent decoding it)
    // but fails the checksum: detected, dropped, and counted apart
    // from in-air loss. It never reaches the protocol layer.
    ++corrupted_;
    world_.charge(dst, node.budget_.rx_base_j +
                           node.budget_.rx_per_byte_j *
                               static_cast<double>(msg.size_bytes));
    if (world_.trace().enabled()) {
      world_.trace().record_message(world_.sim().now(), TraceKind::kDrop, dst,
                                    TraceShape::kCrcKindFrom, msg.kind, msg.src,
                                    msg.trace_id);
    }
    return;
  }
  note_node(dst);
  ++rx_[dst];
  ++total_rx_;
  rx_counter().inc();
  world_.charge(dst, node.budget_.rx_base_j +
                         node.budget_.rx_per_byte_j *
                             static_cast<double>(msg.size_bytes));
  if (!node.alive()) return;  // the rx itself drained the battery
  if (world_.trace().enabled()) {
    world_.trace().record_message(world_.sim().now(), TraceKind::kRx, dst,
                                  TraceShape::kKindFrom, msg.kind, msg.src,
                                  msg.trace_id);
  }
  node.on_message(msg);
}

void Radio::broadcast(NodeProcess& src, const Message& msg, double range) {
  if (!src.alive()) return;
  charge_tx(src, msg);
  const double query_range =
      params_.propagation ? params_.propagation->max_range(range) : range;
  fanout_.clear();
  world_.index().for_each_in_disc(
      src.pos(), query_range,
      [this](std::uint32_t id, geom::Point2) { fanout_.push_back(id); });
  for (std::uint32_t dst : fanout_) {
    if (dst == src.id()) continue;
    if (!frame_reaches(src, dst, range)) {
      ++total_dropped_;
      drop_counter().inc();
      if (world_.trace().enabled()) {
        world_.trace().record_message(world_.sim().now(), TraceKind::kDrop, dst,
                                      TraceShape::kKind, msg.kind, msg.src,
                                      msg.trace_id);
      }
      continue;
    }
    deliver_later(dst, msg);
  }
}

bool Radio::unicast(NodeProcess& src, std::uint32_t dst, const Message& msg,
                    double range) {
  if (!src.alive()) return false;
  charge_tx(src, msg);
  // A frame aimed at a dead or out-of-range destination is still a lost
  // transmission: account for it exactly like an in-air loss so drop
  // totals and traces agree between the broadcast and unicast paths.
  const auto record_drop = [&] {
    ++total_dropped_;
    drop_counter().inc();
    if (world_.trace().enabled()) {
      world_.trace().record_message(world_.sim().now(), TraceKind::kDrop, dst,
                                    TraceShape::kKind, msg.kind, msg.src,
                                    msg.trace_id);
    }
  };
  if (dst >= world_.num_nodes() || !world_.alive(dst)) {
    record_drop();
    return false;
  }
  const double query_range =
      params_.propagation ? params_.propagation->max_range(range) : range;
  if (geom::distance_sq(src.pos(), world_.position(dst)) >
      query_range * query_range) {
    record_drop();
    return false;
  }
  if (!frame_reaches(src, dst, range)) {
    record_drop();
    return true;  // sent, lost in the air
  }
  deliver_later(dst, msg);
  return true;
}

}  // namespace decor::sim
