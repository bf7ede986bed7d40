// Dynamic uniform-grid index over sensor positions.
//
// Deployment algorithms insert sensors one at a time and failure injection
// removes them; the index supports both while answering "which sensors lie
// within distance d of p" (coverage counting, neighbor discovery) in time
// proportional to local density.
//
// Cells inside the bounds live in one flat row-major vector, so a disc
// query reads them by arithmetic instead of hashing each visited cell.
// Cells beyond the bounds (sensors on or past the field border) go to a
// hashed overflow map, consulted only while it is non-empty. Ids are
// dense sensor ids: positions are an id-indexed vector.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/rect.hpp"

namespace decor::geom {

class DynamicSensorIndex {
 public:
  /// `cell_size` should be on the order of the typical query radius.
  DynamicSensorIndex(const Rect& bounds, double cell_size);

  /// Inserts a sensor with caller-chosen unique id (ids are expected to
  /// be dense: storage grows to the largest id). Positions outside the
  /// bounds are not clamped: they land in their own cells beyond the
  /// bounds (cell coordinates are floor-divided, so they may be
  /// negative), and disc queries reach them like any other sensor.
  void insert(std::uint32_t id, Point2 pos);

  /// Removes a previously inserted sensor; no-op if absent.
  void remove(std::uint32_t id);

  bool contains(std::uint32_t id) const {
    return id < present_.size() && present_[id] != 0;
  }
  std::size_t size() const noexcept { return size_; }

  /// Position of a sensor; requires that the id is present.
  Point2 position(std::uint32_t id) const;

  /// Invokes fn(id, pos) for every sensor within `radius` of `center`,
  /// cell row by cell row, each cell in insertion order.
  template <typename Fn>
  void for_each_in_disc(Point2 center, double radius, Fn&& fn) const;

  /// IDs of sensors within `radius` of `center`.
  std::vector<std::uint32_t> query_disc(Point2 center, double radius) const;

  /// Number of sensors within `radius` of `center`.
  std::size_t count_in_disc(Point2 center, double radius) const;

 private:
  /// Cell members carry their position inline, so a query reads each
  /// candidate's coordinates without a lookup by id.
  struct Member {
    std::uint32_t id;
    Point2 pos;
  };
  using Cell = std::vector<Member>;

  std::int64_t cell_index(double v, double origin) const noexcept {
    return static_cast<std::int64_t>(std::floor((v - origin) / cell_size_));
  }
  bool dense(std::int64_t ix, std::int64_t iy) const noexcept {
    return ix >= 0 && ix < nx_ && iy >= 0 && iy < ny_;
  }
  /// Packs two signed cell coordinates into one 64-bit overflow key
  /// (exact for |ix|,|iy| < 2^31, far beyond any realistic field).
  static std::int64_t pack_cell(std::int64_t ix, std::int64_t iy) noexcept {
    return (static_cast<std::int64_t>(static_cast<std::uint32_t>(iy))
            << 32) |
           static_cast<std::int64_t>(static_cast<std::uint32_t>(ix));
  }

  Rect bounds_;
  double cell_size_;
  // Dense grid extent in cells; both 0 when the bounds would need an
  // unreasonable number of cells (every cell then overflows).
  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  std::vector<Cell> cells_;  // iy * nx_ + ix
  std::unordered_map<std::int64_t, Cell> overflow_;
  std::vector<Point2> positions_;     // by id
  std::vector<std::uint8_t> present_;  // by id
  std::size_t size_ = 0;
};

template <typename Fn>
void DynamicSensorIndex::for_each_in_disc(Point2 center, double radius,
                                          Fn&& fn) const {
  const double r2 = radius * radius;
  auto ix0 = cell_index(center.x - radius, bounds_.x0);
  auto ix1 = cell_index(center.x + radius, bounds_.x0);
  auto iy0 = cell_index(center.y - radius, bounds_.y0);
  auto iy1 = cell_index(center.y + radius, bounds_.y0);
  if (overflow_.empty()) {
    // Every sensor is in the dense grid: clip the window to it.
    ix0 = std::max<std::int64_t>(ix0, 0);
    iy0 = std::max<std::int64_t>(iy0, 0);
    ix1 = std::min(ix1, nx_ - 1);
    iy1 = std::min(iy1, ny_ - 1);
  }
  for (std::int64_t iy = iy0; iy <= iy1; ++iy) {
    for (std::int64_t ix = ix0; ix <= ix1; ++ix) {
      const Cell* cell;
      if (dense(ix, iy)) {
        cell = &cells_[static_cast<std::size_t>(iy * nx_ + ix)];
      } else {
        const auto it = overflow_.find(pack_cell(ix, iy));
        if (it == overflow_.end()) continue;
        cell = &it->second;
      }
      for (const Member& m : *cell) {
        if (distance_sq(m.pos, center) <= r2) fn(m.id, m.pos);
      }
    }
  }
}

}  // namespace decor::geom
