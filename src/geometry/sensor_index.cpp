#include "geometry/sensor_index.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace decor::geom {

DynamicSensorIndex::DynamicSensorIndex(const Rect& bounds, double cell_size)
    : bounds_(bounds), cell_size_(std::max(cell_size, 1e-6)) {
  DECOR_REQUIRE_MSG(bounds_.width() > 0 && bounds_.height() > 0,
                    "index bounds must be non-degenerate");
}

void DynamicSensorIndex::insert(std::uint32_t id, Point2 pos) {
  DECOR_REQUIRE_MSG(positions_.find(id) == positions_.end(),
                    "duplicate sensor id in index");
  positions_.emplace(id, pos);
  cells_[cell_key(pos)].push_back(Member{id, pos});
}

void DynamicSensorIndex::remove(std::uint32_t id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) return;
  auto cell = cells_.find(cell_key(it->second));
  if (cell != cells_.end()) {
    auto& v = cell->second;
    std::erase_if(v, [id](const Member& m) { return m.id == id; });
    if (v.empty()) cells_.erase(cell);
  }
  positions_.erase(it);
}

bool DynamicSensorIndex::contains(std::uint32_t id) const {
  return positions_.find(id) != positions_.end();
}

Point2 DynamicSensorIndex::position(std::uint32_t id) const {
  auto it = positions_.find(id);
  DECOR_REQUIRE_MSG(it != positions_.end(), "unknown sensor id");
  return it->second;
}

std::vector<std::uint32_t> DynamicSensorIndex::query_disc(
    Point2 center, double radius) const {
  std::vector<std::uint32_t> out;
  for_each_in_disc(center, radius,
                   [&out](std::uint32_t id, Point2) { out.push_back(id); });
  return out;
}

std::size_t DynamicSensorIndex::count_in_disc(Point2 center,
                                              double radius) const {
  std::size_t n = 0;
  for_each_in_disc(center, radius, [&n](std::uint32_t, Point2) { ++n; });
  return n;
}

}  // namespace decor::geom
