// Uniform-grid spatial index over a static set of points.
//
// The approximation point set (2000 Halton points at paper scale, 10^5+
// on mega-scale fields) is fixed for the life of an experiment; the
// index buckets point IDs into grid cells so that "all points within rs
// of a candidate position" — the inner loop of the benefit function — is
// O(points in a 2rs x 2rs window).
//
// Storage is structure-of-arrays: id-ordered coordinate columns for O(1)
// lookups, plus cell-ordered coordinate copies laid out alongside the
// CSR id array so the disc sweep streams contiguous doubles instead of
// chasing Point2 records — the benefit sweeps at mega scale are memory
// bound on exactly this loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/rect.hpp"

namespace decor::geom {

class PointGridIndex {
 public:
  /// Builds an index over `points` inside `bounds`. `cell_size` should be
  /// on the order of the query radius; it is clamped to a sane minimum.
  PointGridIndex(const Rect& bounds, const std::vector<Point2>& points,
                 double cell_size);

  std::size_t size() const noexcept { return xs_.size(); }
  /// All points in id order, materialized from the columns.
  std::vector<Point2> points() const;
  Point2 point(std::size_t id) const { return {xs_[id], ys_[id]}; }
  const Rect& bounds() const noexcept { return bounds_; }

  /// Id-ordered coordinate columns.
  const std::vector<double>& xs() const noexcept { return xs_; }
  const std::vector<double>& ys() const noexcept { return ys_; }

  /// Invokes `fn(id)` for every point within distance `radius` of
  /// `center`: cell row by cell row, each cell in CSR slot order. A
  /// template on the callable so the sweep inlines into its caller.
  template <typename Fn>
  void for_each_in_disc(Point2 center, double radius, Fn&& fn) const;

  /// IDs of all points within distance `radius` of `center`.
  std::vector<std::size_t> query_disc(Point2 center, double radius) const;

  /// IDs of all points inside the rectangle `r`.
  std::vector<std::size_t> query_rect(const Rect& r) const;

 private:
  std::size_t cell_of(Point2 p) const noexcept;

  Rect bounds_;
  double cell_size_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  // Id-ordered columns.
  std::vector<double> xs_;
  std::vector<double> ys_;
  // CSR layout: cell_start_[c]..cell_start_[c+1] indexes into cell_points_
  // and the cell-ordered coordinate copies.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_points_;
  std::vector<double> cell_xs_;
  std::vector<double> cell_ys_;
};

template <typename Fn>
void PointGridIndex::for_each_in_disc(Point2 center, double radius,
                                      Fn&& fn) const {
  const double r2 = radius * radius;
  const auto clamp_idx = [](double v, std::size_t n) {
    if (v < 0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t ix0 =
      clamp_idx((center.x - radius - bounds_.x0) / cell_size_, nx_);
  const std::size_t ix1 =
      clamp_idx((center.x + radius - bounds_.x0) / cell_size_, nx_);
  const std::size_t iy0 =
      clamp_idx((center.y - radius - bounds_.y0) / cell_size_, ny_);
  const std::size_t iy1 =
      clamp_idx((center.y + radius - bounds_.y0) / cell_size_, ny_);
  for (std::size_t iy = iy0; iy <= iy1; ++iy) {
    // Cells ix0..ix1 of one row are adjacent in the CSR layout, so the
    // row is one contiguous slot range.
    const std::size_t row = iy * nx_;
    const std::uint32_t end = cell_start_[row + ix1 + 1];
    for (std::uint32_t i = cell_start_[row + ix0]; i < end; ++i) {
      const double dx = cell_xs_[i] - center.x;
      const double dy = cell_ys_[i] - center.y;
      if (dx * dx + dy * dy <= r2) fn(std::size_t{cell_points_[i]});
    }
  }
}

}  // namespace decor::geom
