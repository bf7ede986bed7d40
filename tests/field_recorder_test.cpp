// coverage::FieldRecorder: deficit rasters, hole extraction, JSONL
// streaming, and the forced convergence snapshot the harnesses take.
#include "coverage/field_recorder.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "coverage/coverage_map.hpp"
#include "decor/sim_runner.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"

namespace {

using namespace decor;

/// One approximation point at the centre of each unit cell of a 10x10
/// field, so raster cells and points correspond one-to-one.
std::vector<geom::Point2> unit_grid_points() {
  std::vector<geom::Point2> pts;
  for (int j = 0; j < 10; ++j) {
    for (int i = 0; i < 10; ++i) {
      pts.push_back({0.5 + i, 0.5 + j});
    }
  }
  return pts;
}

bool in_box(geom::Point2 p, double x0, double y0, double x1, double y1) {
  return p.x >= x0 && p.x < x1 && p.y >= y0 && p.y < y1;
}

TEST(FieldRecorderTest, TwoSeparatedHolesAreTwoComponents) {
  const auto bounds = geom::make_rect(0, 0, 10, 10);
  // rs 0.4: each disc covers exactly the point it sits on.
  coverage::CoverageMap map(bounds, unit_grid_points(), 0.4);
  // Cover everything except two 2x2 clusters in opposite corners.
  for (const auto& p : unit_grid_points()) {
    if (in_box(p, 1, 1, 3, 3) || in_box(p, 7, 7, 9, 9)) continue;
    map.add_disc(p);
  }
  coverage::FieldRecorder rec(bounds, 1, 10, 10);
  const auto& snap = rec.snapshot(0.0, map);

  EXPECT_EQ(snap.total_deficit, 8u);
  EXPECT_EQ(snap.uncovered_points, 8u);
  ASSERT_EQ(snap.holes.size(), 2u);
  for (const auto& hole : snap.holes) {
    EXPECT_EQ(hole.points, 4u);
    EXPECT_EQ(hole.max_deficit, 1u);
    // 4 of 100 points, field area 100: 4 area units per hole.
    EXPECT_DOUBLE_EQ(hole.area, 4.0);
  }
  // Components are seeded in row-major scan order, so the lower-left
  // hole comes first. Centroids are the means of the member points.
  EXPECT_DOUBLE_EQ(snap.holes[0].centroid.x, 2.0);
  EXPECT_DOUBLE_EQ(snap.holes[0].centroid.y, 2.0);
  EXPECT_DOUBLE_EQ(snap.holes[1].centroid.x, 8.0);
  EXPECT_DOUBLE_EQ(snap.holes[1].centroid.y, 8.0);
}

TEST(FieldRecorderTest, DiagonalCellsMergeIntoOneHole) {
  const auto bounds = geom::make_rect(0, 0, 10, 10);
  coverage::CoverageMap map(bounds, unit_grid_points(), 0.4);
  // Leave (2,2) and (3,3) uncovered: 8-connectivity joins diagonals.
  for (const auto& p : unit_grid_points()) {
    if (in_box(p, 2, 2, 3, 3) || in_box(p, 3, 3, 4, 4)) continue;
    map.add_disc(p);
  }
  coverage::FieldRecorder rec(bounds, 1, 10, 10);
  const auto& snap = rec.snapshot(0.0, map);
  ASSERT_EQ(snap.holes.size(), 1u);
  EXPECT_EQ(snap.holes[0].points, 2u);
}

TEST(FieldRecorderTest, DeficitIsMonotoneAsDiscsAreAdded) {
  const auto bounds = geom::make_rect(0, 0, 10, 10);
  const auto pts = unit_grid_points();
  coverage::CoverageMap map(bounds, pts, 1.6);
  coverage::FieldRecorder rec(bounds, 2, 10, 10);
  std::uint64_t prev = rec.snapshot(0.0, map).total_deficit;
  EXPECT_EQ(prev, 200u);  // 100 points, all at deficit k=2
  double t = 1.0;
  for (const auto& p : pts) {
    map.add_disc(p);
    const auto now = rec.snapshot(t, map).total_deficit;
    EXPECT_LE(now, prev) << "deficit grew at t=" << t;
    prev = now;
    t += 1.0;
  }
  EXPECT_EQ(prev, 0u);
  EXPECT_EQ(rec.latest()->uncovered_points, 0u);
  EXPECT_EQ(rec.snapshots().size(), pts.size() + 1);
}

TEST(FieldRecorderTest, JsonlStreamCarriesHeaderAndSnapshots) {
  const auto bounds = geom::make_rect(0, 0, 10, 10);
  coverage::CoverageMap map(bounds, unit_grid_points(), 0.4);
  const auto path =
      (std::filesystem::path(::testing::TempDir()) / "field_rec.jsonl")
          .string();
  coverage::FieldRecorder rec(bounds, 1, 10, 10);
  ASSERT_TRUE(rec.open_jsonl(path));
  rec.snapshot(0.0, map);
  map.add_disc({1.5, 1.5});
  rec.snapshot(2.5, map, true);
  rec.close_jsonl();

  std::ifstream f(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(f, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"schema\":\"decor.field.v1\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"cols\":10"), std::string::npos);
  EXPECT_NE(lines[1].find("\"forced\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\"forced\":true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"t\":2.5"), std::string::npos);
}

TEST(FieldRecorderTest, DefaultRasterTracksSensingRadius) {
  EXPECT_EQ(coverage::FieldRecorder::default_raster(
                geom::make_rect(0, 0, 100, 100), 4.0),
            25u);
  // Degenerate rs falls back to a fixed grid.
  EXPECT_EQ(coverage::FieldRecorder::default_raster(
                geom::make_rect(0, 0, 100, 100), 0.0),
            32u);
  // Clamped to [8, 64] at the extremes.
  EXPECT_EQ(coverage::FieldRecorder::default_raster(
                geom::make_rect(0, 0, 100, 100), 0.1),
            64u);
  EXPECT_EQ(coverage::FieldRecorder::default_raster(
                geom::make_rect(0, 0, 10, 10), 9.0),
            8u);
}

TEST(FieldRecorderTest, RejectsDegenerateConfiguration) {
  const auto bounds = geom::make_rect(0, 0, 10, 10);
  EXPECT_THROW(coverage::FieldRecorder(bounds, 0, 10, 10),
               common::RequireError);
  EXPECT_THROW(coverage::FieldRecorder(bounds, 1, 0, 10),
               common::RequireError);
}

// The harness must force one final snapshot at the convergence instant,
// even off the periodic cadence, and it must show a drained field.
TEST(FieldRecorderTest, HarnessForcesConvergenceSnapshot) {
  core::SimRunConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 20, 20);
  cfg.params.k = 1;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.params.num_points = 200;
  cfg.seed = 7;
  cfg.run_time = 300.0;
  common::Rng rng(cfg.seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 8, rng);
  cfg.field_interval = 1.0;
  core::GridSimHarness harness(cfg);
  const auto r = harness.run();
  ASSERT_TRUE(r.reached_full_coverage);
  ASSERT_NE(harness.field(), nullptr);
  const auto* last = harness.field()->latest();
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(last->forced);
  EXPECT_EQ(last->total_deficit, 0u);
  EXPECT_EQ(last->holes.size(), 0u);
  EXPECT_DOUBLE_EQ(last->t, r.finish_time);
}

// Restores a killed disc in a second run() and checks the field cadence:
// the resumed run restarts it at the resume instant, and a tick the
// first run() left queued must not add a snapshot of its own, on or off
// that cadence. So the n-th periodic snapshot of the second run lies at
// exactly resume + n * field_interval; the only other one is forced at
// the new convergence instant.
template <class Harness, class Config>
void expect_resume_keeps_field_cadence(Config cfg) {
  cfg.params.field = geom::make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 1;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.params.cell_side = 5.0;
  cfg.seed = 6;
  cfg.run_time = 400.0;
  common::Rng rng(cfg.seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 10, rng);
  cfg.field_interval = 1.0;
  Harness harness(cfg);
  ASSERT_TRUE(harness.run().reached_full_coverage);
  for (const auto id : harness.world().nodes_in_disc({10, 10}, 6.0)) {
    harness.kill_node(id);
  }
  ASSERT_FALSE(harness.map().fully_covered(1));
  const double resume = harness.world().sim().now();
  const std::size_t before = harness.field()->snapshots().size();

  const auto second = harness.run();
  ASSERT_TRUE(second.reached_full_coverage);
  const auto& snaps = harness.field()->snapshots();
  ASSERT_GT(snaps.size(), before + 1);
  std::size_t periodic = 0;
  for (std::size_t i = before; i < snaps.size(); ++i) {
    if (snaps[i].forced) {
      EXPECT_DOUBLE_EQ(snaps[i].t, second.finish_time);
      continue;
    }
    EXPECT_DOUBLE_EQ(snaps[i].t,
                     resume + static_cast<double>(periodic) *
                                  cfg.field_interval)
        << "periodic snapshot " << periodic
        << " is off the cadence restarted at t=" << resume;
    ++periodic;
  }
}

TEST(FieldRecorderTest, ResumedGridRunKeepsTheFieldCadence) {
  core::SimRunConfig cfg;
  cfg.placement_interval = 0.2;
  cfg.seed_check_interval = 2.0;
  cfg.election = net::ElectionParams{10.0, 0.05, 0.01};
  expect_resume_keeps_field_cadence<core::GridSimHarness>(cfg);
}

TEST(FieldRecorderTest, ResumedVoronoiRunKeepsTheFieldCadence) {
  core::VoronoiSimConfig cfg;
  cfg.check_interval = 0.2;
  cfg.stall_timeout = 5.0;
  expect_resume_keeps_field_cadence<core::VoronoiSimHarness>(cfg);
}

}  // namespace
