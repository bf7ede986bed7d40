#include "geometry/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace decor::geom {

PointGridIndex::PointGridIndex(const Rect& bounds,
                               const std::vector<Point2>& points,
                               double cell_size)
    : bounds_(bounds), cell_size_(std::max(cell_size, 1e-6)) {
  DECOR_REQUIRE_MSG(bounds_.width() > 0 && bounds_.height() > 0,
                    "index bounds must be non-degenerate");
  nx_ = static_cast<std::size_t>(std::ceil(bounds_.width() / cell_size_));
  ny_ = static_cast<std::size_t>(std::ceil(bounds_.height() / cell_size_));
  nx_ = std::max<std::size_t>(nx_, 1);
  ny_ = std::max<std::size_t>(ny_, 1);

  xs_.reserve(points.size());
  ys_.reserve(points.size());
  for (const auto& p : points) {
    DECOR_REQUIRE_MSG(bounds_.contains(p), "point outside index bounds");
    xs_.push_back(p.x);
    ys_.push_back(p.y);
  }

  // Counting sort of point IDs into cells (CSR), with cell-ordered
  // coordinate copies for the streaming disc sweep.
  const std::size_t ncells = nx_ * ny_;
  std::vector<std::uint32_t> counts(ncells, 0);
  for (const auto& p : points) ++counts[cell_of(p)];
  cell_start_.assign(ncells + 1, 0);
  for (std::size_t c = 0; c < ncells; ++c)
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  cell_points_.resize(points.size());
  cell_xs_.resize(points.size());
  cell_ys_.resize(points.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::size_t id = 0; id < points.size(); ++id) {
    const std::size_t c = cell_of(points[id]);
    const std::uint32_t slot = cursor[c]++;
    cell_points_[slot] = static_cast<std::uint32_t>(id);
    cell_xs_[slot] = points[id].x;
    cell_ys_[slot] = points[id].y;
  }
}

std::vector<Point2> PointGridIndex::points() const {
  std::vector<Point2> out;
  out.reserve(xs_.size());
  for (std::size_t id = 0; id < xs_.size(); ++id) {
    out.push_back({xs_[id], ys_[id]});
  }
  return out;
}

std::size_t PointGridIndex::cell_of(Point2 p) const noexcept {
  auto ix = static_cast<std::size_t>(
      std::min(std::max((p.x - bounds_.x0) / cell_size_, 0.0),
               static_cast<double>(nx_ - 1)));
  auto iy = static_cast<std::size_t>(
      std::min(std::max((p.y - bounds_.y0) / cell_size_, 0.0),
               static_cast<double>(ny_ - 1)));
  ix = std::min(ix, nx_ - 1);
  iy = std::min(iy, ny_ - 1);
  return iy * nx_ + ix;
}

std::vector<std::size_t> PointGridIndex::query_disc(Point2 center,
                                                    double radius) const {
  std::vector<std::size_t> out;
  for_each_in_disc(center, radius,
                   [&out](std::size_t id) { out.push_back(id); });
  return out;
}

std::vector<std::size_t> PointGridIndex::query_rect(const Rect& r) const {
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < xs_.size(); ++id) {
    if (r.contains(Point2{xs_[id], ys_[id]})) out.push_back(id);
  }
  return out;
}

}  // namespace decor::geom
