// Fault-campaign engine tests: FaultPlan parsing, reboot-with-amnesia
// healing in the ARQ layer (give-up purge and boot-stamp detection),
// re-convergence of both protocol runners through partitions, reboot
// waves, corruption storms and sink outages, and the invariant monitor
// that proves the runs stayed safe while the faults fired.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "decor/decor.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"
#include "net/sensor_node.hpp"
#include "sim/fault.hpp"
#include "sim/propagation.hpp"
#include "sim/world.hpp"

namespace {

using namespace decor;
using core::GridSimHarness;
using core::SimRunConfig;
using core::VoronoiSimConfig;
using core::VoronoiSimHarness;
using geom::make_rect;
using geom::Point2;

// --- FaultPlan parsing ------------------------------------------------------

// The committed acceptance campaign (tests/fault_campaign.json) inline,
// so the parser test does not depend on the source tree layout.
constexpr const char* kCampaignJson = R"({
  "schema": "decor.faults.v1",
  "events": [
    {"kind": "partition", "at": 10.0, "axis": "x", "threshold": 50.0, "until": 30.0},
    {"kind": "reboot", "at": 15.0, "fraction": 0.1, "downtime": 5.0},
    {"kind": "corruption", "at": 20.0, "ber": 0.0001, "until": 40.0},
    {"kind": "sink_outage", "at": 35.0, "downtime": 5.0}
  ]
})";

std::optional<sim::FaultPlan> parse_plan(const std::string& text,
                                         std::string* error = nullptr) {
  const auto doc = common::parse_json(text);
  if (!doc) return std::nullopt;
  return sim::FaultPlan::parse(*doc, error);
}

TEST(FaultPlan, ParsesAcceptanceCampaignAndRoundTrips) {
  std::string err;
  const auto plan = parse_plan(kCampaignJson, &err);
  ASSERT_TRUE(plan) << err;
  ASSERT_EQ(plan->events.size(), 4u);

  EXPECT_EQ(plan->events[0].kind, sim::FaultEvent::Kind::kPartition);
  EXPECT_DOUBLE_EQ(plan->events[0].at, 10.0);
  EXPECT_EQ(plan->events[0].axis, 'x');
  EXPECT_DOUBLE_EQ(plan->events[0].threshold, 50.0);
  EXPECT_DOUBLE_EQ(plan->events[0].until, 30.0);

  EXPECT_EQ(plan->events[1].kind, sim::FaultEvent::Kind::kReboot);
  EXPECT_DOUBLE_EQ(plan->events[1].fraction, 0.1);
  EXPECT_DOUBLE_EQ(plan->events[1].downtime, 5.0);

  EXPECT_EQ(plan->events[2].kind, sim::FaultEvent::Kind::kCorruption);
  EXPECT_DOUBLE_EQ(plan->events[2].ber, 0.0001);
  EXPECT_DOUBLE_EQ(plan->events[2].until, 40.0);

  EXPECT_EQ(plan->events[3].kind, sim::FaultEvent::Kind::kSinkOutage);
  EXPECT_DOUBLE_EQ(plan->events[3].downtime, 5.0);

  // to_json() output must re-parse to the same campaign.
  const auto round = parse_plan(plan->to_json(), &err);
  ASSERT_TRUE(round) << err;
  ASSERT_EQ(round->events.size(), plan->events.size());
  for (std::size_t i = 0; i < plan->events.size(); ++i) {
    EXPECT_EQ(round->events[i].kind, plan->events[i].kind) << "event " << i;
    EXPECT_DOUBLE_EQ(round->events[i].at, plan->events[i].at);
  }
}

TEST(FaultPlan, RejectsMalformedPlans) {
  auto expect_rejected = [](const std::string& text,
                            const std::string& needle) {
    std::string err;
    const auto plan = parse_plan(text, &err);
    EXPECT_FALSE(plan) << text;
    EXPECT_NE(err.find(needle), std::string::npos)
        << "error for " << text << " was: " << err;
  };
  expect_rejected(R"({"schema":"decor.faults.v2","events":[]})", "schema");
  expect_rejected(R"({"schema":"decor.faults.v1"})", "events");
  expect_rejected(R"({"events":[{"kind":"meteor","at":1.0}]})", "kind");
  expect_rejected(R"({"events":[{"kind":"reboot","at":-1.0,"count":1}]})",
                  "at");
  expect_rejected(R"({"events":[{"kind":"reboot","at":1.0}]})", "fraction");
  expect_rejected(
      R"({"events":[{"kind":"partition","at":5.0,"axis":"z","threshold":1.0,"until":9.0}]})",
      "axis");
  expect_rejected(
      R"({"events":[{"kind":"partition","at":5.0,"axis":"x","threshold":1.0,"until":5.0}]})",
      "until");
  expect_rejected(
      R"({"events":[{"kind":"corruption","at":1.0,"ber":1.5,"until":9.0}]})",
      "ber");
  expect_rejected(
      R"({"events":[{"kind":"sink_outage","at":1.0,"downtime":0.0}]})",
      "downtime");
}

// --- ARQ healing across reboot-with-amnesia ---------------------------------

constexpr std::uint8_t kTestKind = 42;

// Propagation model whose losses are decided by a test-owned predicate
// (same idiom as reliable_link_test.cpp).
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

net::SensorNodeParams reboot_params(bool purge_on_give_up) {
  net::SensorNodeParams p;
  p.rc = 8.0;
  p.enable_heartbeat = false;  // only ARQ traffic under test
  p.arq.rto_initial = 0.02;
  p.arq.max_retries = 3;
  p.arq.purge_on_give_up = purge_on_give_up;
  return p;
}

struct Pair {
  std::unique_ptr<sim::World> world;
  std::uint32_t a = 0, b = 0;
  net::ArqStats stats;

  TestNode& na() { return world->node_as<TestNode>(a); }
  TestNode& nb() { return world->node_as<TestNode>(b); }
};

Pair make_pair_world(net::SensorNodeParams p) {
  sim::RadioParams radio;
  radio.propagation = std::make_shared<ScriptedLoss>(
      [](Point2, Point2) { return false; });
  Pair pw;
  pw.world = std::make_unique<sim::World>(make_rect(0, 0, 40, 40), radio,
                                          /*seed=*/77);
  pw.a = pw.world->spawn({10, 10}, std::make_unique<TestNode>(p));
  pw.b = pw.world->spawn({15, 10}, std::make_unique<TestNode>(p));
  pw.na().set_arq_stats(&pw.stats);
  pw.nb().set_arq_stats(&pw.stats);
  pw.world->sim().run();  // hello handshake; the nodes now know each other
  return pw;
}

TEST(ReliableLinkReboot, GiveUpPurgesReceiverDedupOnlyWhenEnabled) {
  for (const bool purge : {false, true}) {
    auto pw = make_pair_world(reboot_params(purge));
    // b delivers one frame so a holds dedup state for b.
    pw.nb().send_reliable(pw.a, sim::Message::make(pw.b, kTestKind, 0));
    pw.world->sim().run_until(5.0);
    ASSERT_EQ(pw.na().delivered.size(), 1u) << "purge=" << purge;
    ASSERT_EQ(pw.na().link()->dedup_entries(pw.b), 1u);
    // a exhausts its retry budget on the dead b.
    pw.world->kill(pw.b);
    pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
    pw.world->sim().run_until(30.0);
    ASSERT_GE(pw.stats.gave_up, 1u);
    EXPECT_EQ(pw.na().link()->dedup_entries(pw.b), purge ? 0u : 1u)
        << "purge=" << purge;
    pw.stats = net::ArqStats{};
  }
}

TEST(ReliableLinkReboot, RebootedPeerFreshTrafficDeliversAfterGiveUp) {
  const auto p = reboot_params(/*purge_on_give_up=*/true);
  auto pw = make_pair_world(p);
  // Old incarnation of b consumed seq 1 at a.
  pw.nb().send_reliable(pw.a, sim::Message::make(pw.b, kTestKind, 0));
  pw.world->sim().run_until(5.0);
  ASSERT_EQ(pw.na().delivered.size(), 1u);
  // b dies; a gives it up for dead (which purges a's dedup for b).
  pw.world->kill(pw.b);
  pw.na().send_reliable(pw.b, sim::Message::make(pw.a, kTestKind, 0));
  pw.world->sim().run_until(30.0);
  ASSERT_GE(pw.stats.gave_up, 1u);
  // Reboot with amnesia: same id, fresh process, seq space restarts at 1.
  pw.world->reboot(pw.b, std::make_unique<TestNode>(p));
  pw.nb().set_arq_stats(&pw.stats);
  pw.world->sim().run_until(35.0);  // fresh hello handshake
  pw.nb().send_reliable(pw.a, sim::Message::make(pw.b, kTestKind, 0));
  pw.world->sim().run_until(40.0);
  // Without the purge the reused seq 1 would be swallowed as a
  // duplicate (and falsely acked) instead of delivered.
  EXPECT_EQ(pw.na().delivered.size(), 2u);
}

TEST(ReliableLinkReboot, BootStampDetectsRebootWithoutAnyGiveUp) {
  // purge_on_give_up stays OFF and a never gives b up: the only healing
  // path is the boot stamp carried in the rebooted node's hello.
  const auto p = reboot_params(/*purge_on_give_up=*/false);
  auto pw = make_pair_world(p);
  pw.nb().send_reliable(pw.a, sim::Message::make(pw.b, kTestKind, 0));
  pw.world->sim().run_until(5.0);
  ASSERT_EQ(pw.na().delivered.size(), 1u);
  ASSERT_EQ(pw.na().link()->dedup_entries(pw.b), 1u);
  pw.world->kill(pw.b);
  pw.world->reboot(pw.b, std::make_unique<TestNode>(p));
  pw.nb().set_arq_stats(&pw.stats);
  pw.world->sim().run_until(10.0);  // hello carries boot > 0 -> purge
  EXPECT_EQ(pw.na().link()->dedup_entries(pw.b), 0u);
  pw.nb().send_reliable(pw.a, sim::Message::make(pw.b, kTestKind, 0));
  pw.world->sim().run_until(15.0);
  EXPECT_EQ(pw.na().delivered.size(), 2u);
}

// --- runner re-convergence through fault campaigns --------------------------

// Small 20x20 / k=1 scenarios (same shape as chaos_test.cpp).
SimRunConfig grid_small(std::uint64_t seed) {
  SimRunConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 1;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.params.cell_side = 5.0;
  cfg.seed = seed;
  cfg.run_time = 200.0;
  cfg.placement_interval = 0.2;
  cfg.seed_check_interval = 2.0;
  cfg.election = net::ElectionParams{10.0, 0.05, 0.01};
  common::Rng rng(seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 10, rng);
  return cfg;
}

VoronoiSimConfig voronoi_small(std::uint64_t seed) {
  VoronoiSimConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 1;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.seed = seed;
  cfg.run_time = 300.0;
  cfg.check_interval = 0.2;
  cfg.stall_timeout = 5.0;
  common::Rng rng(seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 10, rng);
  return cfg;
}

sim::FaultEvent partition_event(double at, double until, double threshold) {
  sim::FaultEvent ev;
  ev.kind = sim::FaultEvent::Kind::kPartition;
  ev.at = at;
  ev.axis = 'x';
  ev.threshold = threshold;
  ev.until = until;
  return ev;
}

sim::FaultEvent reboot_event(double at, double fraction, double downtime) {
  sim::FaultEvent ev;
  ev.kind = sim::FaultEvent::Kind::kReboot;
  ev.at = at;
  ev.fraction = fraction;
  ev.downtime = downtime;
  return ev;
}

sim::FaultEvent corruption_event(double at, double until, double ber) {
  sim::FaultEvent ev;
  ev.kind = sim::FaultEvent::Kind::kCorruption;
  ev.at = at;
  ev.ber = ber;
  ev.until = until;
  return ev;
}

sim::FaultEvent sink_outage_event(double at, double downtime) {
  sim::FaultEvent ev;
  ev.kind = sim::FaultEvent::Kind::kSinkOutage;
  ev.at = at;
  ev.downtime = downtime;
  return ev;
}

TEST(GridFaults, PartitionHealReelectsAndConverges) {
  auto cfg = grid_small(22);
  cfg.fault_plan.events.push_back(partition_event(3.0, 15.0, 10.0));
  cfg.invariant_interval = 0.5;
  const auto r = core::run_grid_decor_sim(cfg);
  EXPECT_TRUE(r.reached_full_coverage);
  EXPECT_DOUBLE_EQ(r.metrics.at_least(1), 1.0);
  EXPECT_EQ(r.faults_fired, 1u);
  // The cut really blocked traffic while it was up.
  EXPECT_GT(r.radio_partition_blocked, 0u);
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(GridFaults, RebootWaveRejoinsToFullCoverage) {
  auto cfg = grid_small(23);
  cfg.fault_plan.events.push_back(reboot_event(3.0, 0.3, 3.0));
  cfg.invariant_interval = 0.5;
  const auto r = core::run_grid_decor_sim(cfg);
  EXPECT_TRUE(r.reached_full_coverage);
  EXPECT_DOUBLE_EQ(r.metrics.at_least(1), 1.0);
  EXPECT_EQ(r.faults_fired, 1u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(VoronoiFaults, RebootWaveRejoinsToFullCoverage) {
  auto cfg = voronoi_small(24);
  // Early strike + linger: the leaderless runner can converge within a
  // couple of sim-seconds, and the wave must actually hit the run.
  cfg.fault_plan.events.push_back(reboot_event(1.0, 0.3, 3.0));
  cfg.linger_after_coverage = 15.0;
  cfg.invariant_interval = 0.5;
  const auto r = core::run_voronoi_decor_sim(cfg);
  EXPECT_TRUE(r.reached_full_coverage);
  EXPECT_DOUBLE_EQ(r.metrics.at_least(1), 1.0);
  EXPECT_EQ(r.faults_fired, 1u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(GridFaults, CorruptionStormIsCountedAndByteDeterministic) {
  auto mk = [] {
    auto cfg = grid_small(25);
    cfg.fault_plan.events.push_back(corruption_event(1.0, 40.0, 1e-3));
    cfg.invariant_interval = 0.5;
    return cfg;
  };
  const auto a = core::run_grid_decor_sim(mk());
  const auto b = core::run_grid_decor_sim(mk());
  EXPECT_TRUE(a.reached_full_coverage);
  // Corrupted frames are a distinct failure class from loss, and the
  // ARQ retransmitted through the storm.
  EXPECT_GT(a.radio_corrupted, 0u);
  EXPECT_GT(a.arq.retx, 0u);
  EXPECT_EQ(a.invariant_violations, 0u);
  // Same seed, same storm: byte-identical trajectories.
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.radio_tx, b.radio_tx);
  EXPECT_EQ(a.radio_rx, b.radio_rx);
  EXPECT_EQ(a.radio_corrupted, b.radio_corrupted);
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.arq.retx, b.arq.retx);
}

// The acceptance campaign shape, scaled to the small field: all four
// fault classes against a live data plane, with the invariant monitor
// sampling throughout and linger so every fault fires even if coverage
// converges early.
template <typename Cfg>
Cfg with_campaign(Cfg cfg) {
  cfg.data_plane.enabled = true;
  cfg.data_plane.reading_interval = 1.0;
  cfg.fault_plan.events.push_back(partition_event(3.0, 12.0, 10.0));
  cfg.fault_plan.events.push_back(reboot_event(5.0, 0.25, 3.0));
  cfg.fault_plan.events.push_back(corruption_event(6.0, 18.0, 5e-4));
  cfg.fault_plan.events.push_back(sink_outage_event(8.0, 4.0));
  cfg.invariant_interval = 0.5;
  cfg.linger_after_coverage = 25.0;
  return cfg;
}

TEST(GridFaults, FullCampaignConvergesSafelyAndDeterministically) {
  const auto a = core::run_grid_decor_sim(with_campaign(grid_small(26)));
  const auto b = core::run_grid_decor_sim(with_campaign(grid_small(26)));
  EXPECT_TRUE(a.reached_full_coverage);
  EXPECT_DOUBLE_EQ(a.metrics.at_least(1), 1.0);
  EXPECT_EQ(a.faults_fired, 4u);
  EXPECT_GT(a.invariant_checks, 0u);
  EXPECT_EQ(a.invariant_violations, 0u);
  EXPECT_GT(a.data.readings_delivered, 0u);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.radio_tx, b.radio_tx);
  EXPECT_EQ(a.radio_rx, b.radio_rx);
  EXPECT_EQ(a.arq.sent, b.arq.sent);
  EXPECT_EQ(a.data.readings_delivered, b.data.readings_delivered);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
}

TEST(VoronoiFaults, FullCampaignConvergesSafelyAndDeterministically) {
  const auto a =
      core::run_voronoi_decor_sim(with_campaign(voronoi_small(27)));
  const auto b =
      core::run_voronoi_decor_sim(with_campaign(voronoi_small(27)));
  EXPECT_TRUE(a.reached_full_coverage);
  EXPECT_DOUBLE_EQ(a.metrics.at_least(1), 1.0);
  EXPECT_EQ(a.faults_fired, 4u);
  EXPECT_EQ(a.invariant_violations, 0u);
  EXPECT_GT(a.data.readings_delivered, 0u);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.radio_tx, b.radio_tx);
  EXPECT_EQ(a.data.readings_delivered, b.data.readings_delivered);
}

// --- sink protection --------------------------------------------------------

TEST(GridFaults, SinkIsNeverRandomlyKilled) {
  auto cfg = grid_small(28);
  cfg.data_plane.enabled = true;
  cfg.run_time = 30.0;
  GridSimHarness harness(cfg);
  // Ask for far more victims than exist: every node except the sink dies.
  harness.schedule_random_kills(1.0, 1000);
  (void)harness.run();
  // Nothing revives the sink if chaos takes it down (replacements get
  // fresh ids), so it surviving the massacre proves the exclusion.
  EXPECT_TRUE(harness.world().alive(cfg.data_plane.sink));
}

TEST(VoronoiFaults, SinkIsNeverRandomlyKilled) {
  auto cfg = voronoi_small(29);
  cfg.data_plane.enabled = true;
  cfg.run_time = 30.0;
  cfg.stall_timeout = 1e9;  // keep the watchdog out of the massacre
  VoronoiSimHarness harness(cfg);
  harness.schedule_random_kills(1.0, 1000);
  (void)harness.run();
  EXPECT_TRUE(harness.world().alive(cfg.data_plane.sink));
}

// --- invariant monitor ------------------------------------------------------

TEST(InvariantMonitor, CatchesCoverageAccountingViolation) {
  auto cfg = grid_small(30);
  cfg.invariant_interval = 0.5;
  GridSimHarness harness(cfg);
  const auto r = harness.run();
  ASSERT_TRUE(r.reached_full_coverage);
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  // Desync ground truth from the alive set: the map loses every disc
  // the alive population still provides (a single disc could hide in
  // k-overlap without changing num_covered). The monitor must notice.
  for (const std::uint32_t id : harness.world().alive_ids()) {
    harness.map().remove_disc(harness.world().position(id));
  }
  harness.monitor().check_now();
  EXPECT_GT(harness.monitor().violations(), 0u);
  ASSERT_FALSE(harness.monitor().violation_log().empty());
  EXPECT_NE(harness.monitor().violation_log().front().find("coverage"),
            std::string::npos);
}

}  // namespace
