#include "net/neighbor_table.hpp"

namespace decor::net {

const NeighborTable::Slot* NeighborTable::find(std::uint32_t id) const {
  const std::size_t at = id_lower_bound(entries_, id);
  return at < entries_.size() && entries_[at].first == id ? &entries_[at]
                                                          : nullptr;
}

bool NeighborTable::observe(std::uint32_t id, geom::Point2 pos,
                            sim::Time now) {
  const std::size_t at = id_lower_bound(entries_, id);
  if (at < entries_.size() && entries_[at].first == id) {
    entries_[at].second = NeighborEntry{pos, now};
    return false;
  }
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(at),
                  Slot{id, NeighborEntry{pos, now}});
  return true;
}

void NeighborTable::forget(std::uint32_t id) {
  if (const Slot* e = find(id)) {
    entries_.erase(entries_.begin() + (e - entries_.data()));
  }
}

bool NeighborTable::knows(std::uint32_t id) const {
  return find(id) != nullptr;
}

std::optional<NeighborEntry> NeighborTable::get(std::uint32_t id) const {
  if (const Slot* e = find(id)) return e->second;
  return std::nullopt;
}

std::vector<std::uint32_t> NeighborTable::stale(sim::Time deadline) const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, e] : entries_) {
    if (e.last_seen < deadline) out.push_back(id);
  }
  return out;
}

}  // namespace decor::net
