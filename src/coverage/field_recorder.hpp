// Spatial observability: rasterized k-deficit snapshots and hole maps.
//
// The temporal observability layer (sim/timeline.hpp) answers "how was
// the run doing at time t"; the FieldRecorder answers "*where* was the
// run failing at time t". A snapshot rasterizes the per-point deficit
// max(k - k_p, 0) of the approximation point set onto a fixed coarse
// grid (max deficit per raster cell) and extracts the coverage holes:
// connected components (8-connectivity over raster cells) of
// under-covered points, each with an area estimate, centroid and peak
// deficit — the spatial artifacts of the paper's Figs. 5–6 and 13–14 as
// data instead of pictures.
//
// Snapshots accumulate in memory (tests, flight recorder, reports) and
// optionally stream to a `decor.field.v1` JSONL file: one header line
// carrying the raster geometry, then one object per snapshot. `t` is
// simulation seconds under the protocol runners and the placement count
// under the offline engines (which have no clock).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "coverage/coverage_map.hpp"
#include "geometry/point.hpp"
#include "geometry/rect.hpp"

namespace decor::coverage {

/// One connected component of under-covered points.
struct CoverageHole {
  /// Approximation points below k in the component.
  std::uint64_t points = 0;
  /// Area estimate: points / total-points x field area (the same
  /// estimator area_estimate.hpp uses for covered area).
  double area = 0.0;
  /// Mean position of the component's points.
  geom::Point2 centroid{};
  /// Largest per-point deficit inside the hole.
  std::uint32_t max_deficit = 0;
};

struct FieldSnapshot {
  double t = 0.0;
  /// True for out-of-cadence snapshots (the convergence instant, the
  /// final engine state).
  bool forced = false;
  /// Sum of max(k - k_p, 0) over all points.
  std::uint64_t total_deficit = 0;
  /// Points below k.
  std::uint64_t uncovered_points = 0;
  /// Max deficit per raster cell, row-major, rows bottom-up (y0 first).
  std::vector<std::uint32_t> raster;
  /// Holes in discovery order (row-major scan of the raster).
  std::vector<CoverageHole> holes;
};

class FieldRecorder {
 public:
  /// Records deficit fields of `bounds` against requirement `k` on a
  /// `cols` x `rows` raster.
  FieldRecorder(const geom::Rect& bounds, std::uint32_t k, std::size_t cols,
                std::size_t rows);

  /// Raster resolution matched to the sensing radius: cells of roughly
  /// rs x rs (holes narrower than a sensing disc merge into one
  /// component), clamped to [8, 64] cells per side.
  static std::size_t default_raster(const geom::Rect& bounds, double rs);

  std::uint32_t k() const noexcept { return k_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t rows() const noexcept { return rows_; }
  const geom::Rect& bounds() const noexcept { return bounds_; }

  /// Publishes snapshots through `bus` instead of the internally-owned
  /// fallback; must precede open_jsonl.
  void attach_bus(common::TelemetryBus* bus);

  /// Streams subsequent snapshots to `path` via a bus file sink (schema
  /// header emitted immediately); logs and returns false when the file
  /// cannot be opened.
  bool open_jsonl(const std::string& path);
  /// Closes the sink; returns its failure() line, empty when every
  /// snapshot reached the file.
  std::string close_jsonl();

  /// Takes one snapshot of `map`'s current counts (appends in memory,
  /// streams when a sink is open) and returns it.
  const FieldSnapshot& snapshot(double t, const CoverageMap& map,
                                bool forced = false);

  const std::vector<FieldSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }
  /// Most recent snapshot, or nullptr before the first one.
  const FieldSnapshot* latest() const noexcept {
    return snapshots_.empty() ? nullptr : &snapshots_.back();
  }

  /// The decor.field.v1 header line (no trailing newline).
  std::string header_json() const;
  /// One snapshot as a decor.field.v1 line (no trailing newline).
  static std::string snapshot_json(const FieldSnapshot& s);

 private:
  std::size_t cell_of(geom::Point2 p) const noexcept;
  common::TelemetryBus& ensure_bus();
  void publish_header();

  geom::Rect bounds_;
  std::uint32_t k_;
  std::size_t cols_;
  std::size_t rows_;
  std::vector<FieldSnapshot> snapshots_;
  common::TelemetryBus* bus_ = nullptr;
  std::unique_ptr<common::TelemetryBus> owned_bus_;
  bool header_published_ = false;
  common::TelemetryBus::SinkId file_sink_ = 0;
};

}  // namespace decor::coverage
