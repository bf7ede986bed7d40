#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/neighbor_table.hpp"
#include "net/sensor_node.hpp"
#include "sim/world.hpp"

namespace {

using namespace decor;
using namespace decor::net;
using geom::make_rect;
using geom::Point2;

TEST(NeighborTable, ObserveAndGet) {
  NeighborTable t;
  t.observe(3, {1, 2}, 5.0);
  EXPECT_TRUE(t.knows(3));
  EXPECT_FALSE(t.knows(4));
  const auto e = t.get(3);
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->pos.x, 1.0);
  EXPECT_DOUBLE_EQ(e->last_seen, 5.0);
}

TEST(NeighborTable, ObserveRefreshes) {
  NeighborTable t;
  t.observe(3, {1, 2}, 5.0);
  t.observe(3, {1.5, 2}, 9.0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.get(3)->last_seen, 9.0);
  EXPECT_DOUBLE_EQ(t.get(3)->pos.x, 1.5);
}

TEST(NeighborTable, StaleDetection) {
  NeighborTable t;
  t.observe(1, {0, 0}, 1.0);
  t.observe(2, {0, 0}, 5.0);
  t.observe(3, {0, 0}, 9.0);
  const auto stale = t.stale(5.0);  // strictly older than deadline
  EXPECT_EQ(stale, (std::vector<std::uint32_t>{1}));
}

TEST(NeighborTable, ForgetRemoves) {
  NeighborTable t;
  t.observe(1, {0, 0}, 1.0);
  t.forget(1);
  EXPECT_FALSE(t.knows(1));
  t.forget(99);  // no-op
}

TEST(NeighborTable, SnapshotSorted) {
  NeighborTable t;
  t.observe(9, {0, 0}, 1.0);
  t.observe(2, {0, 0}, 1.0);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, 2u);
  EXPECT_EQ(snap[1].first, 9u);
}

TEST(NeighborTable, ObserveReportsFirstSightOnly) {
  NeighborTable t;
  EXPECT_TRUE(t.observe(4, {0, 0}, 1.0));
  EXPECT_FALSE(t.observe(4, {1, 0}, 2.0));
  EXPECT_TRUE(t.observe(2, {0, 0}, 2.0));
  t.forget(4);
  EXPECT_TRUE(t.observe(4, {2, 0}, 3.0));
  EXPECT_FALSE(t.observe(4, {2, 0}, 4.0));
}

TEST(NeighborTable, MatchesOrderedMapModel) {
  // Randomized observe/forget against a std::map reference: membership,
  // first-sight verdicts, stale() and snapshot() (both id-ascending)
  // must agree after every step.
  common::Rng rng(97);
  NeighborTable t;
  std::map<std::uint32_t, NeighborEntry> model;
  for (int step = 0; step < 3000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.below(40));
    const double now = static_cast<double>(step);
    if (rng.bernoulli(0.8)) {
      const Point2 pos{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
      const bool fresh = model.find(id) == model.end();
      EXPECT_EQ(t.observe(id, pos, now), fresh);
      model[id] = NeighborEntry{pos, now};
    } else {
      t.forget(id);
      model.erase(id);
    }
    ASSERT_EQ(t.size(), model.size());
    const auto& snap = t.snapshot();
    auto it = model.begin();
    for (const auto& [sid, e] : snap) {
      ASSERT_EQ(sid, it->first);
      EXPECT_EQ(e.pos.x, it->second.pos.x);
      EXPECT_EQ(e.pos.y, it->second.pos.y);
      EXPECT_EQ(e.last_seen, it->second.last_seen);
      ++it;
    }
    const double deadline = now - static_cast<double>(rng.below(60));
    std::vector<std::uint32_t> want;
    for (const auto& [mid, e] : model) {
      if (e.last_seen < deadline) want.push_back(mid);
    }
    EXPECT_EQ(t.stale(deadline), want);
  }
}

// --- SensorNode integration on the simulator -------------------------------

class RecordingNode : public SensorNode {
 public:
  explicit RecordingNode(SensorNodeParams p) : SensorNode(p) {}

  std::vector<std::uint32_t> discovered;
  std::vector<std::uint32_t> failed;

 protected:
  void on_neighbor_discovered(std::uint32_t id, geom::Point2) override {
    discovered.push_back(id);
  }
  void on_neighbor_failed(std::uint32_t id, geom::Point2) override {
    failed.push_back(id);
  }
};

struct Net {
  std::unique_ptr<sim::World> world = std::make_unique<sim::World>(
      make_rect(0, 0, 100, 100), sim::RadioParams{1e-3, 1e-4, 0.0}, 42);
  SensorNodeParams params;

  Net() {
    params.rc = 10.0;
    params.heartbeat.period = 1.0;
    params.heartbeat.timeout_periods = 3.5;
  }

  std::uint32_t add(Point2 pos) {
    return world->spawn(pos, std::make_unique<RecordingNode>(params));
  }
  RecordingNode& node(std::uint32_t id) {
    return world->node_as<RecordingNode>(id);
  }
};

TEST(SensorNode, HelloDiscoversNeighborsBothWays) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  const auto far = net.add({90, 90});
  net.world->sim().run_until(0.5);
  EXPECT_EQ(net.node(a).neighbors().size(), 1u);
  EXPECT_TRUE(net.node(a).neighbors().knows(b));
  EXPECT_TRUE(net.node(b).neighbors().knows(a));
  EXPECT_EQ(net.node(far).neighbors().size(), 0u);
}

TEST(SensorNode, LateJoinerLearnsExistingNetwork) {
  Net net;
  const auto a = net.add({10, 10});
  net.world->sim().run_until(5.0);
  std::uint32_t late = 0;
  net.world->sim().schedule(0.0, [&] { late = net.add({12, 10}); });
  net.world->sim().run_until(6.0);
  // Solicited replies introduce the old node to the newcomer immediately
  // (faster than waiting a heartbeat period).
  EXPECT_TRUE(net.node(late).neighbors().knows(a));
  EXPECT_TRUE(net.node(a).neighbors().knows(late));
}

TEST(SensorNode, HeartbeatDetectsFailure) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  net.world->sim().run_until(2.0);
  EXPECT_TRUE(net.node(a).neighbors().knows(b));
  net.world->kill(b);
  // Detection needs timeout_periods * period of silence.
  net.world->sim().run_until(2.0 + 3.5 * 1.0 + 2.0);
  ASSERT_EQ(net.node(a).discovered.size(), 1u);
  ASSERT_EQ(net.node(a).failed.size(), 1u);
  EXPECT_EQ(net.node(a).failed[0], b);
  EXPECT_FALSE(net.node(a).neighbors().knows(b));
}

TEST(SensorNode, NoFalsePositivesWhileAlive) {
  Net net;
  const auto a = net.add({10, 10});
  net.add({15, 10});
  net.add({10, 15});
  net.world->sim().run_until(30.0);
  EXPECT_TRUE(net.node(a).failed.empty());
  EXPECT_EQ(net.node(a).neighbors().size(), 2u);
}

TEST(SensorNode, DetectionLatencyWithinBound) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  net.world->sim().run_until(5.0);
  net.world->kill(b);
  const double kill_time = net.world->sim().now();
  // Not yet detected right away.
  EXPECT_TRUE(net.node(a).failed.empty());
  // Must be detected within timeout + one period + slack.
  net.world->sim().run_until(kill_time + 3.5 + 1.0 + 0.5);
  EXPECT_EQ(net.node(a).failed.size(), 1u);
}

TEST(SensorNode, HeartbeatsKeepTableFresh) {
  Net net;
  const auto a = net.add({10, 10});
  const auto b = net.add({15, 10});
  net.world->sim().run_until(20.0);
  const auto entry = net.node(a).neighbors().get(b);
  ASSERT_TRUE(entry.has_value());
  EXPECT_GT(entry->last_seen, 15.0);
}

TEST(SensorNode, DisabledHeartbeatSendsNothingPeriodic) {
  Net net;
  net.params.enable_heartbeat = false;
  const auto a = net.add({10, 10});
  net.add({15, 10});
  net.world->sim().run_until(30.0);
  // Only the two HELLOs (broadcast + solicited unicast reply) ever go out.
  EXPECT_LE(net.world->radio().total_tx(), 4u);
  EXPECT_TRUE(net.node(a).failed.empty());
}

TEST(SensorNode, MessageLoadIsBounded) {
  Net net;
  for (int i = 0; i < 9; ++i) {
    net.add({10.0 + static_cast<double>(i % 3) * 3.0,
             10.0 + static_cast<double>(i / 3) * 3.0});
  }
  net.world->sim().run_until(10.0);
  // 9 nodes, ~10s of 1Hz heartbeats (~90) plus discovery (9 hellos + up
  // to 72 solicited replies): tx must stay linear in nodes * time.
  EXPECT_LT(net.world->radio().total_tx(), 250u);
}

}  // namespace
