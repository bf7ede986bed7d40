// Neighbor tables: what one node knows about the nodes around it.
//
// Populated from HELLO and heartbeat messages; entries age out when
// heartbeats stop, which is exactly how DECOR detects node failures
// ("once a node stops receiving such messages from one of its neighbors,
// this indicates that the neighbor has failed", Section 3.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "sim/event_queue.hpp"

namespace decor::net {

struct NeighborEntry {
  geom::Point2 pos;
  sim::Time last_seen = 0.0;
};

/// Index of the first pair whose id is not below `id` in an id-ascending
/// vector of (id, value) pairs. Branch-free: neighbor ids arrive in no
/// particular order, so a branching search mispredicts about once per
/// halving.
template <typename T>
std::size_t id_lower_bound(const std::vector<std::pair<std::uint32_t, T>>& v,
                           std::uint32_t id) noexcept {
  std::size_t n = v.size();
  if (n == 0) return 0;
  const auto* base = v.data();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half].first < id ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - v.data()) +
         (base->first < id ? 1 : 0);
}

/// One flat vector of entries in ascending id order: a lookup is one
/// binary search over a node's few dozen neighbors, and stale() and
/// snapshot() come out id-ascending without sorting.
class NeighborTable {
 public:
  /// Inserts or refreshes a neighbor; returns true when `id` was not
  /// known (first sight, or first sight since forget()).
  bool observe(std::uint32_t id, geom::Point2 pos, sim::Time now);

  /// Removes a neighbor (explicit failure notification).
  void forget(std::uint32_t id);

  bool knows(std::uint32_t id) const;
  std::optional<NeighborEntry> get(std::uint32_t id) const;
  std::size_t size() const noexcept { return entries_.size(); }

  /// IDs whose last_seen is older than `deadline`, ascending; does not
  /// remove them.
  std::vector<std::uint32_t> stale(sim::Time deadline) const;

  /// All currently known (id, entry) pairs, id-ascending; a view valid
  /// until the next observe() or forget().
  const std::vector<std::pair<std::uint32_t, NeighborEntry>>& snapshot()
      const noexcept {
    return entries_;
  }

 private:
  using Slot = std::pair<std::uint32_t, NeighborEntry>;
  const Slot* find(std::uint32_t id) const;

  std::vector<Slot> entries_;
};

}  // namespace decor::net
