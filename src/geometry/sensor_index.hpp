// Dynamic uniform-grid index over sensor positions.
//
// Deployment algorithms insert sensors one at a time and failure injection
// removes them; the index supports both while answering "which sensors lie
// within distance d of p" (coverage counting, neighbor discovery) in time
// proportional to local density.
#pragma once

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

  /// Inserts a sensor with caller-chosen unique id. Positions outside the
  /// bounds are not clamped: they land in their own cells beyond the
  /// bounds (cell coordinates are floor-divided, so they may be
  /// negative), and disc queries reach them like any other sensor.
  void insert(std::uint32_t id, Point2 pos);

  /// Removes a previously inserted sensor; no-op if absent.
  void remove(std::uint32_t id);

  bool contains(std::uint32_t id) const;
  std::size_t size() const noexcept { return positions_.size(); }

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

  std::int64_t cell_index(double v, double origin) const noexcept {
    return static_cast<std::int64_t>(std::floor((v - origin) / cell_size_));
  }
  std::int64_t cell_key(Point2 p) const noexcept {
    return pack_cell(cell_index(p.x, bounds_.x0), cell_index(p.y, bounds_.y0));
  }
  /// Packs two signed cell coordinates into one 64-bit key (exact for
  /// |ix|,|iy| < 2^31, far beyond any realistic field).
  static std::int64_t pack_cell(std::int64_t ix, std::int64_t iy) noexcept {
    return (static_cast<std::int64_t>(static_cast<std::uint32_t>(iy))
            << 32) |
           static_cast<std::int64_t>(static_cast<std::uint32_t>(ix));
  }

  Rect bounds_;
  double cell_size_;
  std::unordered_map<std::int64_t, std::vector<Member>> cells_;
  std::unordered_map<std::uint32_t, Point2> positions_;
};

template <typename Fn>
void DynamicSensorIndex::for_each_in_disc(Point2 center, double radius,
                                          Fn&& fn) const {
  const double r2 = radius * radius;
  const auto ix0 = cell_index(center.x - radius, bounds_.x0);
  const auto ix1 = cell_index(center.x + radius, bounds_.x0);
  const auto iy0 = cell_index(center.y - radius, bounds_.y0);
  const auto iy1 = cell_index(center.y + radius, bounds_.y0);
  for (std::int64_t iy = iy0; iy <= iy1; ++iy) {
    for (std::int64_t ix = ix0; ix <= ix1; ++ix) {
      auto cell = cells_.find(pack_cell(ix, iy));
      if (cell == cells_.end()) continue;
      for (const Member& m : cell->second) {
        if (distance_sq(m.pos, center) <= r2) fn(m.id, m.pos);
      }
    }
  }
}

}  // namespace decor::geom
