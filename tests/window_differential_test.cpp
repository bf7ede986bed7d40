// Differential pinning for the ARQ sliding window.
//
// window=1 must be *byte-identical* to the historical stop-and-wait
// link: the legacy send/receive code paths are taken verbatim, acks
// carry cum=0 (a no-op), and no windowed state machine runs. These
// tests pin three full simulation trajectories — every placement
// coordinate, radio counter and ARQ counter — against goldens captured
// from the pre-window build. Any accidental behaviour change to the
// default configuration (an extra RNG draw, a reordered event, a
// different timer) shows up here as a hard failure, not as a silent
// statistical drift.
//
// The only intended delta vs the golden capture: ArqStats.sent used to
// count best-effort broadcasts (send_to_all with nobody in range);
// those now land in ArqStats.best_effort instead, so the conservation
// law sent + best_effort == golden_sent is asserted rather than raw
// equality of `sent`.
//
// window>1 intentionally diverges (different timers, pacing and ack
// payloads), so it cannot be pinned against the stop-and-wait goldens;
// instead the windowed trajectories are checked for same-process
// determinism: two identical runs must agree exactly.
//
// The simulator-core cases at the end pin three more trajectories that
// the stop-and-wait goldens never reach — a windowed Voronoi run with
// bursty loss and the data plane, a grid run with receiver-side
// collisions, and a run under a frame-corruption fault — against
// goldens captured before the event queue, radio frames and neighbor
// tables were reworked into slabs and flat arrays. They cover every
// radio counter, the executed-event count and the ARQ and data-plane
// accounting, so any change to event order or RNG draws shows up.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "decor/sim_runner.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"
#include "sim/propagation.hpp"

namespace {

using namespace decor;
using core::SimRunConfig;
using core::VoronoiSimConfig;

// FNV-1a over the exact decimal rendering of every placement, so a
// single placement moved by one ULP changes the hash.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t placements_hash(const std::vector<geom::Point2>& ps) {
  std::ostringstream os;
  for (const auto& p : ps) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g,%.17g;", p.x, p.y);
    os << buf;
  }
  return fnv1a(os.str());
}

SimRunConfig grid_cfg(std::uint64_t seed, bool bursty) {
  SimRunConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 30, 30);
  cfg.params.num_points = 350;
  cfg.params.k = 2;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.params.cell_side = 5.0;
  cfg.seed = seed;
  cfg.run_time = 300.0;
  cfg.placement_interval = 0.2;
  cfg.seed_check_interval = 2.0;
  cfg.election = net::ElectionParams{10.0, 0.05, 0.01};
  common::Rng rng(seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 15, rng);
  if (bursty) {
    cfg.radio.propagation = std::make_shared<sim::GilbertElliottModel>(
        sim::GilbertElliottModel::from_loss_and_burst(0.2, 6.0));
  } else {
    cfg.radio.loss_prob = 0.2;
  }
  return cfg;
}

VoronoiSimConfig voronoi_cfg(std::uint64_t seed, bool bursty) {
  VoronoiSimConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 30, 30);
  cfg.params.num_points = 350;
  cfg.params.k = 2;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.seed = seed;
  cfg.run_time = 300.0;
  cfg.check_interval = 0.3;
  cfg.stall_timeout = 10.0;
  common::Rng rng(seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 15, rng);
  if (bursty) {
    cfg.radio.propagation = std::make_shared<sim::GilbertElliottModel>(
        sim::GilbertElliottModel::from_loss_and_burst(0.2, 6.0));
  } else {
    cfg.radio.loss_prob = 0.2;
  }
  return cfg;
}

/// One pinned trajectory: everything the runner reports, flattened.
struct Golden {
  std::size_t placed;
  bool full;
  double finish;
  std::uint64_t tx, rx;
  std::uint64_t sent;  // pre-split value: today's sent + best_effort
  std::uint64_t retx, acks_sent, acks_rx, dup_drops, gave_up;
  std::uint64_t placements_fnv;
};

template <typename Result>
void expect_matches(const Result& r, const Golden& g) {
  EXPECT_EQ(r.placed_nodes, g.placed);
  EXPECT_EQ(r.reached_full_coverage, g.full);
  EXPECT_DOUBLE_EQ(r.finish_time, g.finish);
  EXPECT_EQ(r.radio_tx, g.tx);
  EXPECT_EQ(r.radio_rx, g.rx);
  // Conservation across the accounting split: frames the old code
  // counted as `sent` are now either reliable (sent) or best-effort.
  EXPECT_EQ(r.arq.sent + r.arq.best_effort, g.sent);
  EXPECT_EQ(r.arq.retx, g.retx);
  EXPECT_EQ(r.arq.acks_sent, g.acks_sent);
  EXPECT_EQ(r.arq.acks_rx, g.acks_rx);
  EXPECT_EQ(r.arq.dup_drops, g.dup_drops);
  EXPECT_EQ(r.arq.gave_up, g.gave_up);
  EXPECT_EQ(placements_hash(r.placements), g.placements_fnv);
}

TEST(WindowDifferential, GridIidLossTrajectoryIsByteIdentical) {
  const auto r = core::run_grid_decor_sim(grid_cfg(701, /*bursty=*/false));
  expect_matches(r, Golden{63, true, 8.0, 13069, 29774, 268, 493, 10670,
                           2659, 6714, 0, 13969864319593463383ull});
}

TEST(WindowDifferential, GridBurstyLossTrajectoryIsByteIdentical) {
  const auto r = core::run_grid_decor_sim(grid_cfg(702, /*bursty=*/true));
  expect_matches(r, Golden{65, true, 7.0, 12852, 27446, 289, 441, 10373,
                           3193, 6020, 0, 5652268462401033216ull});
}

TEST(WindowDifferential, VoronoiBurstyLossTrajectoryIsByteIdentical) {
  const auto r =
      core::run_voronoi_decor_sim(voronoi_cfg(703, /*bursty=*/true));
  expect_matches(r, Golden{65, true, 2.0, 1669, 3135, 65, 70, 976, 340,
                           434, 0, 4526910164375335398ull});
  EXPECT_EQ(r.seeded_nodes, 0u);
  // This trajectory contains exactly one empty-audience broadcast, so
  // it also pins the best_effort split itself.
  EXPECT_EQ(r.arq.best_effort, 1u);
}

TEST(WindowDifferential, ExplicitWindowOneEqualsDefault) {
  // A config that *sets* window=1 must take the identical legacy path,
  // not a degenerate windowed one.
  auto cfg = grid_cfg(702, /*bursty=*/true);
  cfg.arq.window = 1;
  const auto r = core::run_grid_decor_sim(cfg);
  expect_matches(r, Golden{65, true, 7.0, 12852, 27446, 289, 441, 10373,
                           3193, 6020, 0, 5652268462401033216ull});
}

TEST(WindowDifferential, WindowedGridRunIsDeterministic) {
  auto cfg = grid_cfg(702, /*bursty=*/true);
  cfg.arq.window = 4;
  const auto r1 = core::run_grid_decor_sim(cfg);
  const auto r2 = core::run_grid_decor_sim(cfg);
  EXPECT_EQ(r1.placed_nodes, r2.placed_nodes);
  EXPECT_EQ(r1.reached_full_coverage, r2.reached_full_coverage);
  EXPECT_DOUBLE_EQ(r1.finish_time, r2.finish_time);
  EXPECT_EQ(r1.radio_tx, r2.radio_tx);
  EXPECT_EQ(r1.radio_rx, r2.radio_rx);
  EXPECT_EQ(r1.arq.sent, r2.arq.sent);
  EXPECT_EQ(r1.arq.retx, r2.arq.retx);
  EXPECT_EQ(r1.arq.acks_sent, r2.arq.acks_sent);
  EXPECT_EQ(r1.arq.acks_rx, r2.arq.acks_rx);
  EXPECT_EQ(r1.arq.dup_drops, r2.arq.dup_drops);
  EXPECT_EQ(r1.arq.queued, r2.arq.queued);
  EXPECT_EQ(placements_hash(r1.placements), placements_hash(r2.placements));
}

TEST(WindowDifferential, WindowedVoronoiRunIsDeterministic) {
  auto cfg = voronoi_cfg(703, /*bursty=*/true);
  cfg.arq.window = 4;
  const auto r1 = core::run_voronoi_decor_sim(cfg);
  const auto r2 = core::run_voronoi_decor_sim(cfg);
  EXPECT_EQ(r1.placed_nodes, r2.placed_nodes);
  EXPECT_DOUBLE_EQ(r1.finish_time, r2.finish_time);
  EXPECT_EQ(r1.radio_tx, r2.radio_tx);
  EXPECT_EQ(r1.radio_rx, r2.radio_rx);
  EXPECT_EQ(r1.arq.retx, r2.arq.retx);
  EXPECT_EQ(placements_hash(r1.placements), placements_hash(r2.placements));
}

// --- simulator-core trajectories -------------------------------------------

/// Everything one run reports, including the world's own counters.
struct Trajectory {
  std::size_t placed = 0;
  bool full = false;
  double finish = 0.0;
  std::uint64_t tx = 0, rx = 0, dropped = 0, collisions = 0, corrupted = 0;
  std::uint64_t events = 0;
  std::uint64_t sent = 0, best_effort = 0, retx = 0, acks_sent = 0,
                acks_rx = 0, dup_drops = 0, gave_up = 0, queued = 0,
                completed = 0, failed = 0, abandoned = 0;
  std::uint64_t originated = 0, forwarded = 0, delivered = 0,
                duplicates = 0, no_route = 0, ttl_drops = 0, beacons = 0,
                bytes = 0, stale_drops = 0;
  std::uint64_t placements_fnv = 0;

  bool operator==(const Trajectory&) const = default;
};

void PrintTo(const Trajectory& t, std::ostream* os) {
  *os << "{.placed = " << t.placed << ", .full = " << t.full
      << ", .finish = " << t.finish << ", .tx = " << t.tx
      << ", .rx = " << t.rx << ", .dropped = " << t.dropped
      << ", .collisions = " << t.collisions
      << ", .corrupted = " << t.corrupted << ", .events = " << t.events
      << ", .sent = " << t.sent << ", .best_effort = " << t.best_effort
      << ", .retx = " << t.retx << ", .acks_sent = " << t.acks_sent
      << ", .acks_rx = " << t.acks_rx << ", .dup_drops = " << t.dup_drops
      << ", .gave_up = " << t.gave_up << ", .queued = " << t.queued
      << ", .completed = " << t.completed << ", .failed = " << t.failed
      << ", .abandoned = " << t.abandoned
      << ", .originated = " << t.originated
      << ", .forwarded = " << t.forwarded
      << ", .delivered = " << t.delivered
      << ", .duplicates = " << t.duplicates
      << ", .no_route = " << t.no_route << ", .ttl_drops = " << t.ttl_drops
      << ", .beacons = " << t.beacons << ", .bytes = " << t.bytes
      << ", .stale_drops = " << t.stale_drops
      << ", .placements_fnv = " << t.placements_fnv << "ull}";
}

template <typename Harness>
Trajectory run_pinned(Harness& harness) {
  const auto r = harness.run();
  sim::World& w = harness.world();
  Trajectory t;
  t.placed = r.placed_nodes;
  t.full = r.reached_full_coverage;
  t.finish = r.finish_time;
  t.tx = r.radio_tx;
  t.rx = r.radio_rx;
  t.dropped = w.radio().total_dropped();
  t.collisions = w.radio().total_collisions();
  t.corrupted = w.radio().total_corrupted();
  t.events = w.sim().events_executed();
  t.sent = r.arq.sent;
  t.best_effort = r.arq.best_effort;
  t.retx = r.arq.retx;
  t.acks_sent = r.arq.acks_sent;
  t.acks_rx = r.arq.acks_rx;
  t.dup_drops = r.arq.dup_drops;
  t.gave_up = r.arq.gave_up;
  t.queued = r.arq.queued;
  t.completed = r.arq.completed;
  t.failed = r.arq.failed;
  t.abandoned = r.arq.abandoned;
  t.originated = r.data.readings_originated;
  t.forwarded = r.data.readings_forwarded;
  t.delivered = r.data.readings_delivered;
  t.duplicates = r.data.duplicates_at_sink;
  t.no_route = r.data.no_route_drops;
  t.ttl_drops = r.data.ttl_drops;
  t.beacons = r.data.beacons_sent;
  t.bytes = r.data.bytes_delivered;
  t.stale_drops = r.data.stale_drops;
  t.placements_fnv = placements_hash(r.placements);
  return t;
}

TEST(SimCoreDifferential, WindowedVoronoiDataPlaneTrajectoryIsPinned) {
  auto cfg = voronoi_cfg(704, /*bursty=*/true);
  cfg.arq.window = 4;
  cfg.data_plane.enabled = true;
  cfg.linger_after_coverage = 20.0;
  core::VoronoiSimHarness harness(cfg);
  EXPECT_EQ(run_pinned(harness),
            (Trajectory{
      .placed = 59, .full = true, .finish = 2.5, .tx = 11541, .rx = 25102,
      .dropped = 6114, .events = 33923, .sent = 3589, .best_effort = 2,
      .retx = 1185, .acks_sent = 4463, .acks_rx = 3820, .dup_drops = 499,
      .queued = 343, .completed = 3578, .originated = 1211,
      .forwarded = 2322, .delivered = 1201, .no_route = 330,
      .beacons = 291, .bytes = 43236,
      .placements_fnv = 3658695927965342120ull}));
}

TEST(SimCoreDifferential, GridCollisionTrajectoryIsPinned) {
  auto cfg = grid_cfg(705, /*bursty=*/false);
  cfg.radio.loss_prob = 0.1;
  cfg.radio.bitrate_bps = 250000.0;
  core::GridSimHarness harness(cfg);
  EXPECT_EQ(run_pinned(harness),
            (Trajectory{
      .placed = 82, .full = true, .finish = 7, .tx = 21535, .rx = 26411,
      .dropped = 6953, .collisions = 34762, .events = 63626, .sent = 421,
      .best_effort = 87, .retx = 1451, .acks_sent = 18882, .acks_rx = 203,
      .dup_drops = 11416, .completed = 198,
      .placements_fnv = 12669495869170914180ull}));
}

TEST(SimCoreDifferential, CorruptionFaultTrajectoryIsPinned) {
  auto cfg = voronoi_cfg(706, /*bursty=*/false);
  sim::FaultEvent corruption;
  corruption.kind = sim::FaultEvent::Kind::kCorruption;
  corruption.at = 0.5;
  corruption.until = 30.0;
  corruption.ber = 1e-3;
  cfg.fault_plan.events.push_back(corruption);
  core::VoronoiSimHarness harness(cfg);
  EXPECT_EQ(run_pinned(harness),
            (Trajectory{
      .placed = 68, .full = true, .finish = 2, .tx = 2205, .rx = 3779,
      .dropped = 1089, .corrupted = 726, .events = 5074, .sent = 62,
      .best_effort = 6, .retx = 162, .acks_sent = 1413, .acks_rx = 294,
      .dup_drops = 786, .completed = 44,
      .placements_fnv = 15728072743656317252ull}));
}

}  // namespace
