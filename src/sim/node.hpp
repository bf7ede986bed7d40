// Base class for node behaviours (protocol processes).
//
// A NodeProcess is the software running on one sensor device: it reacts to
// start-up, incoming radio messages and timers, and can transmit through
// the world's radio. Energy accounting is attached here — every tx/rx
// draws from the node's budget and depletion kills the node, which is one
// of the failure modes the paper's restoration loop must survive.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "geometry/point.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"

namespace decor::sim {

class World;

/// Per-node energy model (Joules). Defaults give an effectively infinite
/// battery; the lifetime example tightens them.
struct EnergyBudget {
  double capacity_j = std::numeric_limits<double>::infinity();
  double tx_base_j = 50e-6;
  double tx_per_byte_j = 1e-6;
  double rx_base_j = 25e-6;
  double rx_per_byte_j = 0.5e-6;
};

class NodeProcess {
 public:
  virtual ~NodeProcess() = default;

  std::uint32_t id() const noexcept { return id_; }
  geom::Point2 pos() const noexcept { return pos_; }
  bool alive() const noexcept { return alive_; }
  World& world() const noexcept { return *world_; }

  /// Sim time at which this process (re)started — the node's incarnation
  /// stamp. A reboot installs a fresh process with a later boot_time, so
  /// protocol layers can carry it in HELLOs/heartbeats to detect that a
  /// known peer id lost its state (reboot with amnesia) and resync.
  double boot_time() const noexcept { return boot_time_; }

  double energy_used() const noexcept { return energy_used_j_; }
  double energy_remaining() const noexcept {
    return budget_.capacity_j - energy_used_j_;
  }
  void set_energy_budget(const EnergyBudget& b) noexcept { budget_ = b; }

  /// Invoked once when the node is spawned (at current sim time).
  virtual void on_start() {}
  /// Invoked for each received message.
  virtual void on_message(const Message& msg) { (void)msg; }
  /// Invoked when the node dies (failure injection or battery depletion).
  virtual void on_stop() {}

 protected:
  /// Broadcasts to every alive node within `range`; dead senders no-op.
  void broadcast(Message msg, double range);

  /// Sends to `dst` if it is alive and within `range`; returns false (and
  /// still pays the tx energy) otherwise — radio silence is not free.
  /// The verdict must be consumed (see Radio::unicast).
  [[nodiscard]] bool unicast(std::uint32_t dst, Message msg, double range);

  /// Schedules `fn` after `delay`; the callback is suppressed if the node
  /// has died in the meantime (process objects outlive their death, so
  /// the captured `this` stays valid). The guard holds `fn` itself, not
  /// a std::function of it: a callable capturing one pointer still fits,
  /// with the guard, in std::function's inline buffer.
  template <typename Fn>
  EventHandle set_timer(Time delay, Fn fn) {
    return schedule_timer(delay, [this, fn = std::move(fn)]() mutable {
      if (alive_) fn();
    });
  }

 private:
  EventHandle schedule_timer(Time delay, std::function<void()> fn);

  friend class World;
  friend class Radio;

  World* world_ = nullptr;
  std::uint32_t id_ = 0;
  geom::Point2 pos_;
  bool alive_ = true;
  double boot_time_ = 0.0;
  EnergyBudget budget_;
  double energy_used_j_ = 0.0;
};

}  // namespace decor::sim
