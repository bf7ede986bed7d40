// Tests for the metrics registry, its deterministic-snapshot guarantee,
// the simulator wiring (radio/engine counts must match the results the
// harnesses report), and the Trace ring buffer / JSONL sink.
#include "common/metrics.hpp"

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "decor/decor.hpp"
#include "decor/voronoi_sim.hpp"
#include "lds/random_points.hpp"
#include "sim/trace.hpp"

namespace {

using namespace decor;
using common::metrics;
using common::metrics_enabled;

// Metrics state is process-global; every test starts from zeroed values
// with collection on and leaves the switch off again.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics().reset();
    metrics().enable(true);
  }
  void TearDown() override {
    metrics().enable(false);
    metrics().reset();
  }
};

TEST_F(MetricsTest, CounterCountsAndResets) {
  auto& c = metrics().counter("test.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  metrics().reset();
  EXPECT_EQ(c.value(), 0u);
  // Same name resolves to the same counter.
  metrics().counter("test.counter.basic").inc(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(MetricsTest, DisabledMutationsAreNoOps) {
  auto& c = metrics().counter("test.counter.disabled");
  auto& g = metrics().gauge("test.gauge.disabled");
  auto& h = metrics().histogram("test.hist.disabled", {1.0, 2.0});
  metrics().enable(false);
  EXPECT_FALSE(metrics_enabled());
  c.inc(100);
  g.set(5.0);
  g.add(1.0);
  h.observe(0.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.total_count(), 0u);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  auto& g = metrics().gauge("test.gauge.basic");
  g.set(3.0);
  EXPECT_EQ(g.value(), 3.0);
  g.add(2.0);
  g.add(-4.0);
  EXPECT_EQ(g.value(), 1.0);
  metrics().reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, HistogramBucketsByInclusiveUpperEdge) {
  auto& h = metrics().histogram("test.hist.edges", {1.0, 2.0, 3.0});
  ASSERT_EQ(h.num_buckets(), 4u);
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive edge)
  h.observe(2.5);   // bucket 2
  h.observe(100.0); // overflow bucket 3
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.total_count(), 4u);
}

TEST_F(MetricsTest, SnapshotJsonListsRegisteredMetrics) {
  metrics().counter("test.json.counter").inc(3);
  metrics().gauge("test.json.gauge").set(1.5);
  metrics().histogram("test.json.hist", {1.0}).observe(0.5);
  const std::string json = metrics().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  // reset() keeps the registration (schema only grows) but zeroes it.
  metrics().reset();
  EXPECT_NE(metrics().to_json().find("\"test.json.counter\":0"),
            std::string::npos);
}

TEST_F(MetricsTest, CountersAreDeterministicAcrossThreadCounts) {
  auto& c = metrics().counter("test.parallel.counter");
  auto run = [&](std::size_t threads) {
    metrics().reset();
    common::parallel_for(
        1000, [&](std::size_t i) { c.inc(i % 7); }, threads);
    return c.value();
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
}

TEST_F(MetricsTest, SeriesTableJsonIdenticalAcrossThreadCounts) {
  // The bench pattern: jobs fill per-job slots in parallel, the table is
  // built serially in job order afterwards -> the rendered JSON must be
  // byte-identical regardless of worker count.
  auto build = [](std::size_t threads) {
    const std::size_t jobs = 64;
    std::vector<double> slots(jobs);
    common::parallel_for(
        jobs,
        [&](std::size_t i) {
          common::Rng rng(i + 1);
          slots[i] = rng.uniform(0.0, 1.0);
        },
        threads);
    common::SeriesTable t("trial");
    for (std::size_t i = 0; i < jobs; ++i) {
      t.add(static_cast<double>(i % 4), "value", slots[i]);
    }
    return t.to_json();
  };
  const std::string serial = build(1);
  EXPECT_EQ(build(4), serial);
}

TEST_F(MetricsTest, RadioCountersMatchSimResult) {
  core::SimRunConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 1;
  cfg.params.rs = 4.0;
  cfg.params.rc = 8.0;
  cfg.params.cell_side = 5.0;
  cfg.seed = 11;
  cfg.run_time = 120.0;
  cfg.placement_interval = 0.2;
  cfg.seed_check_interval = 2.0;
  cfg.election = net::ElectionParams{10.0, 0.05, 0.01};
  common::Rng rng(cfg.seed);
  cfg.initial_positions = lds::random_points(cfg.params.field, 10, rng);

  const auto result = core::run_grid_decor_sim(cfg);
  EXPECT_EQ(metrics().counter("sim.radio.tx").value(), result.radio_tx);
  EXPECT_EQ(metrics().counter("sim.radio.rx").value(), result.radio_rx);
  EXPECT_EQ(metrics().counter("protocol.grid.runs").value(), 1u);
  EXPECT_EQ(metrics().counter("protocol.grid.placements").value(),
            result.placed_nodes);
  // Every initial sensor plus every placement went through World::spawn.
  EXPECT_EQ(metrics().counter("sim.world.spawn").value(),
            result.initial_nodes + result.placed_nodes);
}

// Both runners publish per-run protocol counters under their own scheme
// name. Each scheme's counters must move only for its own runs, whichever
// ran first, and grid (which never seeds) publishes no seeded counter.
TEST_F(MetricsTest, ProtocolCountersArePerScheme) {
  core::RunConfig run;
  run.params.field = geom::make_rect(0, 0, 20, 20);
  run.params.num_points = 200;
  run.params.k = 1;
  run.params.rs = 4.0;
  run.params.rc = 8.0;
  run.params.cell_side = 5.0;
  run.seed = 11;
  run.run_time = 120.0;
  common::Rng rng(run.seed);
  run.initial_positions = lds::random_points(run.params.field, 10, rng);
  const auto value = [](const char* name) {
    return metrics().counter(name).value();
  };

  core::SimRunConfig gcfg;
  static_cast<core::RunConfig&>(gcfg) = run;
  const auto g = core::run_grid_decor_sim(gcfg);
  EXPECT_EQ(value("protocol.grid.runs"), 1u);
  EXPECT_EQ(value("protocol.grid.placements"), g.placed_nodes);
  EXPECT_EQ(value("protocol.grid.covered_runs"),
            g.reached_full_coverage ? 1u : 0u);
  EXPECT_EQ(value("protocol.voronoi.runs"), 0u);
  EXPECT_EQ(value("protocol.voronoi.placements"), 0u);

  // An empty field makes the voronoi stall watchdog seed.
  core::VoronoiSimConfig vcfg;
  static_cast<core::RunConfig&>(vcfg) = run;
  vcfg.initial_positions.clear();
  const auto v = core::run_voronoi_decor_sim(vcfg);
  ASSERT_GT(v.seeded_nodes, 0u);
  EXPECT_EQ(value("protocol.voronoi.runs"), 1u);
  EXPECT_EQ(value("protocol.voronoi.placements"), v.placed_nodes);
  EXPECT_EQ(value("protocol.voronoi.seeded"), v.seeded_nodes);
  EXPECT_EQ(value("protocol.voronoi.covered_runs"),
            v.reached_full_coverage ? 1u : 0u);
  EXPECT_EQ(value("protocol.grid.runs"), 1u);
  EXPECT_EQ(value("protocol.grid.placements"), g.placed_nodes);
  EXPECT_EQ(metrics().to_json().find("protocol.grid.seeded"),
            std::string::npos);
}

TEST_F(MetricsTest, EngineCountersMatchDeploymentResult) {
  core::DecorParams p;
  p.field = geom::make_rect(0, 0, 40, 40);
  p.num_points = 500;
  p.k = 1;
  p.rs = 4.0;
  p.rc = 8.0;
  p.cell_side = 5.0;
  common::Rng rng(5);
  core::Field field(p, rng);
  field.deploy_random(30, rng);
  const auto result = core::run_engine(core::Scheme::kGrid, field, rng);
  EXPECT_EQ(metrics().counter("engine.runs").value(), 1u);
  EXPECT_EQ(metrics().counter("engine.messages").value(), result.messages);
  EXPECT_EQ(metrics().counter("engine.placements").value(),
            result.placed_nodes);
  EXPECT_EQ(metrics().counter("engine.rounds").value(), result.rounds);
}

TEST(TraceRing, CapacityBoundsBufferAndCountsDrops) {
  sim::Trace t;
  t.enable(true);
  t.set_capacity(8);
  for (int i = 0; i < 100; ++i) {
    t.record(static_cast<double>(i), sim::TraceKind::kTx,
             static_cast<std::uint32_t>(i), "r" + std::to_string(i));
  }
  EXPECT_EQ(t.records().size(), 8u);
  EXPECT_EQ(t.total_recorded(), 100u);
  EXPECT_EQ(t.dropped(), 92u);
  const auto chron = t.chronological();
  ASSERT_EQ(chron.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(chron[i].at, 92.0 + i);
    EXPECT_EQ(chron[i].detail, "r" + std::to_string(92 + i));
  }
  // filter/grep compensate the ring rotation too.
  EXPECT_EQ(t.filter(sim::TraceKind::kTx).size(), 8u);
  EXPECT_EQ(t.grep("r99").size(), 1u);
}

TEST(TraceRing, SetCapacityZeroRestoresUnbounded) {
  sim::Trace t;
  t.enable(true);
  t.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    t.record(i, sim::TraceKind::kProtocol, 0, "");
  }
  EXPECT_EQ(t.records().size(), 4u);
  t.set_capacity(0);
  EXPECT_EQ(t.records().size(), 0u);  // set_capacity clears
  for (int i = 0; i < 10; ++i) {
    t.record(i, sim::TraceKind::kProtocol, 0, "");
  }
  EXPECT_EQ(t.records().size(), 10u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceJsonl, SinkSeesEveryRecordDespiteRing) {
  const std::string path = ::testing::TempDir() + "decor_trace_test.jsonl";
  sim::Trace t;
  t.enable(true);
  t.set_capacity(4);  // ring drops in-memory records, not sink lines
  ASSERT_TRUE(t.open_jsonl(path));
  for (int i = 0; i < 20; ++i) {
    t.record(static_cast<double>(i), sim::TraceKind::kRx,
             static_cast<std::uint32_t>(i), "detail");
  }
  t.close_jsonl();
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"kind\":\"rx\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 20u);
}

}  // namespace
