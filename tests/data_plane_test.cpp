// Tests for the sensing data plane (net::DataPlane) and the sliding
// window under sustained traffic: gradient formation, multi-hop
// delivery to the sink, bounded receiver dedup state, and the headline
// acceptance property — on a contended, bursty-lossy channel a
// window>1 link delivers strictly more sensing goodput than the
// stop-and-wait configuration while restoration still converges.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "decor/sim_runner.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"
#include "net/sensor_node.hpp"
#include "sim/propagation.hpp"
#include "sim/world.hpp"

namespace {

using namespace decor;
using geom::make_rect;
using geom::Point2;

constexpr std::uint8_t kTestKind = 42;

// ---------------------------------------------------------------------
// Runner-level tests: the workload wired through the full harnesses.

core::SimRunConfig stress_cfg(std::uint32_t window) {
  core::SimRunConfig cfg;
  cfg.params.field = make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 2;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.seed = 23;
  cfg.run_time = 30.0;
  // Fixed measurement horizon: goodput is compared over the same wall
  // of simulated time regardless of when coverage converged.
  cfg.linger_after_coverage = 30.0;
  cfg.arq.window = window;
  cfg.data_plane.enabled = true;
  cfg.data_plane.reading_interval = 0.1;  // 10 readings/s/node
  cfg.radio.bitrate_bps = 50000.0;        // contended channel
  cfg.radio.propagation = std::make_shared<sim::GilbertElliottModel>(
      sim::GilbertElliottModel::from_loss_and_burst(0.2, 6.0));
  common::Rng rng(cfg.seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 10, rng);
  return cfg;
}

core::VoronoiSimConfig stress_voronoi_cfg(std::uint32_t window) {
  core::VoronoiSimConfig cfg;
  cfg.params.field = make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 2;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.seed = 23;
  cfg.run_time = 30.0;
  cfg.linger_after_coverage = 30.0;
  cfg.arq.window = window;
  cfg.data_plane.enabled = true;
  cfg.data_plane.reading_interval = 0.1;
  cfg.radio.bitrate_bps = 50000.0;
  cfg.radio.propagation = std::make_shared<sim::GilbertElliottModel>(
      sim::GilbertElliottModel::from_loss_and_burst(0.2, 6.0));
  common::Rng rng(cfg.seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 10, rng);
  return cfg;
}

TEST(DataPlane, GradientFormsAndReadingsReachTheSinkMultiHop) {
  // Clean channel, default stop-and-wait: the collection tree must form
  // from the sink's beacons and deliver a steady reading stream,
  // including relayed hops (the 20x20 field is wider than one rc).
  core::SimRunConfig cfg;
  cfg.params.field = make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 1;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.seed = 5;
  cfg.run_time = 30.0;
  cfg.linger_after_coverage = 30.0;
  cfg.data_plane.enabled = true;
  cfg.data_plane.reading_interval = 0.5;
  common::Rng rng(cfg.seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 8, rng);
  const auto r = core::run_grid_decor_sim(cfg);
  EXPECT_TRUE(r.reached_full_coverage);
  EXPECT_GT(r.data.beacons_sent, 0u);
  EXPECT_GT(r.data.readings_originated, 0u);
  EXPECT_GT(r.data.readings_delivered, 0u);
  EXPECT_GT(r.data.readings_forwarded, 0u);  // some origins need relays
  // Lossless, collision-free channel: at-least-once never fires twice.
  EXPECT_EQ(r.data.duplicates_at_sink, 0u);
  EXPECT_GE(r.data.readings_originated, r.data.readings_delivered);
  EXPECT_GT(r.data.bytes_delivered, 0u);
}

TEST(DataPlane, WindowedBeatsStopAndWaitUnderBurstyLossGrid) {
  // Acceptance: >=10% Gilbert-Elliott loss on a finite-bitrate channel
  // under heavy offered load. Stop-and-wait's unlimited per-frame
  // parallelism melts down in collision storms; the AIMD-paced window
  // must deliver strictly more goodput over the same horizon while the
  // restoration protocol still reaches full k-coverage in both runs.
  const auto w1 = core::run_grid_decor_sim(stress_cfg(1));
  const auto w4 = core::run_grid_decor_sim(stress_cfg(4));
  EXPECT_TRUE(w1.reached_full_coverage);
  EXPECT_TRUE(w4.reached_full_coverage);
  // Same horizon (run_time with linger), so bytes compare as goodput.
  EXPECT_DOUBLE_EQ(w1.end_time, w4.end_time);
  EXPECT_GT(w4.data.bytes_delivered, w1.data.bytes_delivered);
  // The windowed link wins by pacing: far fewer retransmissions.
  EXPECT_LT(w4.arq.retx, w1.arq.retx);
}

TEST(DataPlane, WindowedBeatsStopAndWaitUnderBurstyLossVoronoi) {
  const auto w1 = core::run_voronoi_decor_sim(stress_voronoi_cfg(1));
  const auto w4 = core::run_voronoi_decor_sim(stress_voronoi_cfg(4));
  EXPECT_TRUE(w1.reached_full_coverage);
  EXPECT_TRUE(w4.reached_full_coverage);
  EXPECT_DOUBLE_EQ(w1.end_time, w4.end_time);
  EXPECT_GT(w4.data.bytes_delivered, w1.data.bytes_delivered);
  EXPECT_LT(w4.arq.retx, w1.arq.retx);
}

// ---------------------------------------------------------------------
// Link-level test: the receiver's dedup state must stay O(window) per
// peer under sustained traffic (the selective set above the cumulative
// floor is pruned as the floor advances).

// Propagation model whose losses are decided by a test-owned predicate
// (consulted after the range check).
class ScriptedLoss final : public sim::PropagationModel {
 public:
  using Drop = std::function<bool(Point2 src, Point2 dst)>;
  explicit ScriptedLoss(Drop drop) : drop_(std::move(drop)) {}

  bool received(Point2 src, Point2 dst, double range,
                common::Rng& rng) const override {
    (void)rng;
    if (geom::distance_sq(src, dst) > range * range) return false;
    return !drop_(src, dst);
  }
  double max_range(double nominal_range) const override {
    return nominal_range;
  }
  // The copy shares the test-owned predicate and whatever it captures.
  std::unique_ptr<sim::PropagationModel> clone() const override {
    return std::make_unique<ScriptedLoss>(*this);
  }

 private:
  Drop drop_;
};

class TestNode : public net::SensorNode {
 public:
  explicit TestNode(net::SensorNodeParams p) : SensorNode(p) {}

  using SensorNode::send_reliable;

  std::vector<sim::Message> delivered;

 protected:
  void handle_message(const sim::Message& msg) override {
    delivered.push_back(msg);
  }
};

TEST(DataPlane, ReceiverDedupStateBoundedByWindowUnderSustainedTraffic) {
  constexpr std::uint32_t kWindow = 4;
  constexpr int kFrames = 200;

  net::SensorNodeParams p;
  p.rc = 8.0;
  p.enable_heartbeat = false;
  p.arq.window = kWindow;

  // Every third frame from b (the receiver — its only traffic is acks)
  // dies, so the sender retransmits and the receiver keeps seeing
  // duplicates above its floor for the whole run.
  auto armed = std::make_shared<bool>(false);
  auto counter = std::make_shared<int>(0);
  sim::RadioParams radio;
  radio.propagation = std::make_shared<ScriptedLoss>(
      [armed, counter](Point2 src, Point2) {
        if (!*armed || src.x != 15.0) return false;
        return ++*counter % 3 == 0;
      });
  sim::World world(make_rect(0, 0, 40, 40), radio, /*seed=*/77);
  const auto a = world.spawn({10, 10}, std::make_unique<TestNode>(p));
  const auto b = world.spawn({15, 10}, std::make_unique<TestNode>(p));
  net::ArqStats stats;
  world.node_as<TestNode>(a).set_arq_stats(&stats);
  world.node_as<TestNode>(b).set_arq_stats(&stats);
  world.sim().run();  // hello handshake
  *armed = true;

  std::size_t max_dedup = 0;
  for (int i = 0; i < kFrames; ++i) {
    world.node_as<TestNode>(a).send_reliable(
        b, sim::Message::make(a, kTestKind, 0));
    // Drain in bursts so the window cycles many times mid-stream, and
    // sample the receiver's dedup footprint while traffic is live.
    if (i % 10 == 9) {
      world.sim().run_until(world.sim().now() + 5.0);
      max_dedup = std::max(
          max_dedup, world.node_as<TestNode>(b).link()->dedup_entries(a));
    }
  }
  world.sim().run_until(world.sim().now() + 60.0);

  // Exactly-once delivery of the full stream, no give-ups.
  EXPECT_EQ(world.node_as<TestNode>(b).delivered.size(),
            static_cast<std::size_t>(kFrames));
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_GT(stats.retx, 0u);       // the loss script did fire
  EXPECT_GT(stats.dup_drops, 0u);  // and produced real duplicates
  // The bound under test: the selective set above the cumulative floor
  // never grows past the sender's window (small slack for frames whose
  // floor-advancing ack is still in flight at the sample instant) —
  // NOT O(total frames), which is what an unpruned seen-set would be.
  max_dedup = std::max(
      max_dedup, world.node_as<TestNode>(b).link()->dedup_entries(a));
  EXPECT_LE(max_dedup, static_cast<std::size_t>(2 * kWindow));
  EXPECT_EQ(world.node_as<TestNode>(a).link()->in_flight(), 0u);
  EXPECT_EQ(world.node_as<TestNode>(a).link()->queued_frames(), 0u);
}

}  // namespace
