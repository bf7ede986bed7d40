#include "geometry/sensor_index.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace decor::geom {

namespace {

// Above this many dense cells (24 bytes each when empty) the grid is not
// worth its memory; every cell then lives in the overflow map.
constexpr double kMaxDenseCells = double{1 << 20};

}  // namespace

DynamicSensorIndex::DynamicSensorIndex(const Rect& bounds, double cell_size)
    : bounds_(bounds), cell_size_(std::max(cell_size, 1e-6)) {
  DECOR_REQUIRE_MSG(bounds_.width() > 0 && bounds_.height() > 0,
                    "index bounds must be non-degenerate");
  // floor + 1 cells per axis, so sensors exactly on the x1/y1 edges are
  // dense too.
  const double nx = std::floor(bounds_.width() / cell_size_) + 1.0;
  const double ny = std::floor(bounds_.height() / cell_size_) + 1.0;
  if (nx * ny <= kMaxDenseCells) {
    nx_ = static_cast<std::int64_t>(nx);
    ny_ = static_cast<std::int64_t>(ny);
    cells_.resize(static_cast<std::size_t>(nx_ * ny_));
  }
}

void DynamicSensorIndex::insert(std::uint32_t id, Point2 pos) {
  DECOR_REQUIRE_MSG(!contains(id), "duplicate sensor id in index");
  if (id >= present_.size()) {
    present_.resize(std::size_t{id} + 1, 0);
    positions_.resize(std::size_t{id} + 1);
  }
  present_[id] = 1;
  positions_[id] = pos;
  ++size_;
  const auto ix = cell_index(pos.x, bounds_.x0);
  const auto iy = cell_index(pos.y, bounds_.y0);
  Cell& cell = dense(ix, iy)
                   ? cells_[static_cast<std::size_t>(iy * nx_ + ix)]
                   : overflow_[pack_cell(ix, iy)];
  cell.push_back(Member{id, pos});
}

void DynamicSensorIndex::remove(std::uint32_t id) {
  if (!contains(id)) return;
  present_[id] = 0;
  --size_;
  const Point2 pos = positions_[id];
  const auto ix = cell_index(pos.x, bounds_.x0);
  const auto iy = cell_index(pos.y, bounds_.y0);
  const auto is_id = [id](const Member& m) { return m.id == id; };
  if (dense(ix, iy)) {
    std::erase_if(cells_[static_cast<std::size_t>(iy * nx_ + ix)], is_id);
    return;
  }
  const auto cell = overflow_.find(pack_cell(ix, iy));
  DECOR_ASSERT(cell != overflow_.end());
  std::erase_if(cell->second, is_id);
  if (cell->second.empty()) overflow_.erase(cell);
}

Point2 DynamicSensorIndex::position(std::uint32_t id) const {
  DECOR_REQUIRE_MSG(contains(id), "unknown sensor id");
  return positions_[id];
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
