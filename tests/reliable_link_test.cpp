// Unit tests for the ARQ layer (net::ReliableLink) over a scriptable
// lossy radio: retransmit-until-ack, duplicate suppression, bounded
// backoff, and the dead-peer path into the neighbor table.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "net/sensor_node.hpp"
#include "sim/propagation.hpp"
#include "sim/world.hpp"

namespace {

using namespace decor;
using geom::make_rect;
using geom::Point2;

constexpr std::uint8_t kTestKind = 42;

// Propagation model whose losses are decided by a test-owned predicate
// (consulted after the range check), so each case scripts exactly which
// frames die.
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

  using SensorNode::broadcast_reliable;
  using SensorNode::send_reliable;

  std::vector<sim::Message> delivered;
  std::vector<std::uint32_t> failed_peers;

 protected:
  void handle_message(const sim::Message& msg) override {
    delivered.push_back(msg);
  }
  void on_neighbor_failed(std::uint32_t id, geom::Point2) override {
    failed_peers.push_back(id);
  }
};

net::SensorNodeParams node_params() {
  net::SensorNodeParams p;
  p.rc = 8.0;
  p.enable_heartbeat = false;  // only ARQ traffic under test
  return p;
}

struct Pair {
  std::unique_ptr<sim::World> world;
  std::uint32_t a = 0, b = 0;
  net::ArqStats stats;

  TestNode& na() { return world->node_as<TestNode>(a); }
  TestNode& nb() { return world->node_as<TestNode>(b); }
};

// The scripted losses only arm after the hello handshake, so discovery
// traffic cannot consume a test's drop budget.
Pair make_pair_world(ScriptedLoss::Drop drop,
                     net::SensorNodeParams p = node_params()) {
  auto armed = std::make_shared<bool>(false);
  sim::RadioParams radio;
  radio.propagation = std::make_shared<ScriptedLoss>(
      [armed, drop = std::move(drop)](Point2 src, Point2 dst) {
        return *armed && drop(src, dst);
      });
  Pair pw;
  pw.world = std::make_unique<sim::World>(make_rect(0, 0, 40, 40), radio,
                                          /*seed=*/77);
  pw.a = pw.world->spawn({10, 10}, std::make_unique<TestNode>(p));
  pw.b = pw.world->spawn({15, 10}, std::make_unique<TestNode>(p));
  pw.na().set_arq_stats(&pw.stats);
  pw.nb().set_arq_stats(&pw.stats);
  pw.world->sim().run();  // hello handshake; the nodes now know each other
  *armed = true;
  return pw;
}

TEST(ReliableLink, LosslessUnicastDeliversOnceWithoutRetx) {
  auto pw = make_pair_world([](Point2, Point2) { return false; });
  pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
  pw.world->sim().run_until(10.0);
  ASSERT_EQ(pw.nb().delivered.size(), 1u);
  EXPECT_EQ(pw.nb().delivered[0].kind, kTestKind);
  EXPECT_EQ(pw.stats.retx, 0u);
  EXPECT_EQ(pw.stats.acks_rx, 1u);
  EXPECT_EQ(pw.na().link()->in_flight(), 0u);
}

TEST(ReliableLink, RetransmitsUntilDataFrameGetsThrough) {
  // Drop the first three data frames from a (src x == 10); acks pass.
  int drops_left = 3;
  auto pw = make_pair_world([&drops_left](Point2 src, Point2) {
    if (src.x == 10.0 && drops_left > 0) {
      --drops_left;
      return true;
    }
    return false;
  });
  pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
  pw.world->sim().run_until(20.0);
  ASSERT_EQ(pw.nb().delivered.size(), 1u);
  EXPECT_GE(pw.stats.retx, 3u);
  EXPECT_EQ(pw.na().link()->in_flight(), 0u);
  EXPECT_TRUE(pw.na().failed_peers.empty());
}

TEST(ReliableLink, LostAcksCauseDuplicatesWhichAreSuppressed) {
  // Acks from b (src x == 15) die twice; a retransmits, b must swallow
  // the duplicates and re-ack every copy.
  int ack_drops = 2;
  auto pw = make_pair_world([&ack_drops](Point2 src, Point2) {
    if (src.x == 15.0 && ack_drops > 0) {
      --ack_drops;
      return true;
    }
    return false;
  });
  pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
  pw.world->sim().run_until(20.0);
  ASSERT_EQ(pw.nb().delivered.size(), 1u);  // exactly-once delivery
  EXPECT_GE(pw.stats.dup_drops, 1u);
  EXPECT_GE(pw.stats.acks_sent, 3u);  // original + one per duplicate
  EXPECT_EQ(pw.na().link()->in_flight(), 0u);
}

TEST(ReliableLink, GivesUpOnDeadPeerAndForgetsNeighbor) {
  auto p = node_params();
  p.arq.rto_initial = 0.02;
  p.arq.max_retries = 3;
  auto pw = make_pair_world([](Point2, Point2) { return false; }, p);
  ASSERT_TRUE(pw.na().neighbors().knows(pw.b));
  pw.world->kill(pw.b);
  pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
  pw.world->sim().run_until(30.0);
  EXPECT_EQ(pw.stats.gave_up, 1u);
  ASSERT_EQ(pw.na().failed_peers.size(), 1u);
  EXPECT_EQ(pw.na().failed_peers[0], pw.b);
  EXPECT_FALSE(pw.na().neighbors().knows(pw.b));
  EXPECT_EQ(pw.na().link()->in_flight(), 0u);
}

TEST(ReliableLink, BackoffBoundsTheGiveUpTime) {
  // Worst case with the default policy (rto 0.05, x2, cap 2.0, jitter
  // 25%, 8 retries) is sum(min(0.05 * 2^i, 2)) * 1.25 < 12 simulated
  // seconds; a peer that never answers must be declared dead within it.
  auto pw = make_pair_world([](Point2, Point2) { return false; });
  pw.world->kill(pw.b);
  pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
  pw.world->sim().run_until(12.0);
  EXPECT_EQ(pw.stats.gave_up, 1u);
  EXPECT_EQ(pw.na().link()->in_flight(), 0u);
}

TEST(ReliableLink, BroadcastWaitsForEveryNeighbor) {
  // Three nodes in range of each other; c's copy of the first data frame
  // dies, so a must rebroadcast until c acks while b suppresses the
  // duplicate.
  sim::RadioParams radio;
  int drops_left = 1;
  bool armed = false;
  radio.propagation = std::make_shared<ScriptedLoss>(
      [&drops_left, &armed](Point2 src, Point2 dst) {
        if (armed && src.x == 10.0 && dst.x == 13.0 && drops_left > 0) {
          --drops_left;
          return true;
        }
        return false;
      });
  sim::World world(make_rect(0, 0, 40, 40), radio, 78);
  const auto a = world.spawn({10, 10}, std::make_unique<TestNode>(node_params()));
  const auto b = world.spawn({12, 10}, std::make_unique<TestNode>(node_params()));
  const auto c = world.spawn({13, 13}, std::make_unique<TestNode>(node_params()));
  net::ArqStats stats;
  world.node_as<TestNode>(a).set_arq_stats(&stats);
  world.sim().run();  // hellos
  armed = true;
  ASSERT_TRUE(world.node_as<TestNode>(a).neighbors().knows(b));
  ASSERT_TRUE(world.node_as<TestNode>(a).neighbors().knows(c));

  world.node_as<TestNode>(a).broadcast_reliable(
      sim::Message::make(a, kTestKind, 0));
  world.sim().run_until(20.0);
  EXPECT_EQ(world.node_as<TestNode>(b).delivered.size(), 1u);
  EXPECT_EQ(world.node_as<TestNode>(c).delivered.size(), 1u);
  EXPECT_GE(stats.retx, 1u);
  EXPECT_EQ(world.node_as<TestNode>(a).link()->in_flight(), 0u);
}

TEST(ReliableLink, DisabledArqFallsBackToFireAndForget) {
  auto p = node_params();
  p.enable_arq = false;
  auto pw = make_pair_world([](Point2, Point2) { return false; }, p);
  EXPECT_EQ(pw.na().link(), nullptr);
  pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
  pw.na().broadcast_reliable(sim::Message::make(pw.a, kTestKind, 0));
  pw.world->sim().run_until(5.0);
  EXPECT_EQ(pw.nb().delivered.size(), 2u);
  EXPECT_EQ(pw.stats.sent, 0u);  // no ARQ accounting without a link
}

}  // namespace
