// Causal critical-path analysis (`decor explain`): byte-determinism on
// the committed golden chaos run, agreement between the explain document
// and the raw artifacts it joins (closing placement vs the audit log,
// phase sum vs the timeline's convergence instant), root-cause diffing
// of a lossy run against its loss-free twin, and graceful degradation on
// damaged inputs (trace_id=0 audits, truncated trace rings, dead-leader
// exchanges that never complete).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "decor/artifacts.hpp"
#include "decor/explain.hpp"
#include "decor/run_report.hpp"
#include "decor/sim_runner.hpp"
#include "geometry/point.hpp"
#include "geometry/rect.hpp"
#include "net/leader_election.hpp"
#include "temp_path.hpp"

namespace {

using namespace decor;
using core::ExplainDoc;

const char* golden_dir() { return EXPLAIN_GOLDEN_DIR "/explain_run"; }

bool has_warning(const ExplainDoc& doc, const std::string& needle) {
  for (const auto& w : doc.warnings) {
    if (w.find(needle) != std::string::npos) return true;
  }
  return false;
}

// --- golden run: determinism and artifact agreement ------------------------

TEST(Explain, GoldenRunIsByteDeterministic) {
  const auto a = core::explain_run_dir(golden_dir());
  const auto b = core::explain_run_dir(golden_dir());
  const std::string ja = core::explain_to_json(a);
  const std::string jb = core::explain_to_json(b);
  EXPECT_EQ(ja, jb);
  EXPECT_FALSE(ja.empty());
  EXPECT_EQ(ja.back(), '\n');
  // No absolute paths or wall-clock stamps may leak into the document.
  EXPECT_EQ(ja.find(golden_dir()), std::string::npos);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// The expected files next to the golden run were generated before the
// trace reader became a typed index (`decor explain <dir> --out=...`,
// `decor report html <dir> --out=...`); the index must reproduce them
// byte for byte.
TEST(Explain, GoldenRunMatchesPinnedDocument) {
  const std::string expected =
      read_file(std::string(golden_dir()) + "/expected_explain.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(core::explain_to_json(core::explain_run_dir(golden_dir())),
            expected);
}

TEST(Explain, GoldenRunReportMatchesPinnedHtml) {
  const std::string expected =
      read_file(std::string(golden_dir()) + "/expected_report.html");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(core::render_run_report_html(std::string(golden_dir())),
            expected);
}

TEST(Explain, GoldenRunRoundTripsThroughJson) {
  const auto doc = core::explain_run_dir(golden_dir());
  const std::string json = core::explain_to_json(doc);
  const auto parsed = common::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  ExplainDoc back;
  ASSERT_TRUE(core::explain_from_json(*parsed, back));
  EXPECT_EQ(core::explain_to_json(back), json);
}

TEST(Explain, GoldenRunClosingPlacementMatchesAuditLog) {
  const auto doc = core::explain_run_dir(golden_dir());
  ASSERT_TRUE(doc.converged);
  ASSERT_TRUE(doc.closing_placement.present);

  // Reload the raw audit log and find the last decision at or before the
  // convergence instant: the explain walk must name exactly that record
  // (the golden run closes with a seed bootstrap, whose audit row does
  // not record newly-satisfied points).
  std::ifstream f(std::string(golden_dir()) + "/audit.jsonl");
  ASSERT_TRUE(f.is_open());
  std::string line, best;
  double best_t = -1.0;
  while (std::getline(f, line)) {
    const auto rec = common::parse_json(line);
    if (!rec) continue;
    const auto* t = rec->find("t");
    if (t == nullptr) continue;
    // >= : ties (one decision batch seeding several cells at the same
    // instant) resolve to the later file-order record, like the walk.
    if (t->as_number() <= doc.convergence_time + doc.sample_cadence &&
        t->as_number() >= best_t) {
      best_t = t->as_number();
      best = line;
    }
  }
  ASSERT_FALSE(best.empty());
  const auto rec = common::parse_json(best);
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(doc.closing_placement.t, rec->find("t")->as_number());
  EXPECT_EQ(doc.closing_placement.actor,
            static_cast<std::uint32_t>(rec->find("actor")->as_number()));
  EXPECT_DOUBLE_EQ(doc.closing_placement.x, rec->find("x")->as_number());
  EXPECT_DOUBLE_EQ(doc.closing_placement.y, rec->find("y")->as_number());
}

TEST(Explain, GoldenRunPhasesSumToConvergenceTime) {
  const auto doc = core::explain_run_dir(golden_dir());
  ASSERT_TRUE(doc.converged);
  EXPECT_GT(doc.convergence_time, 0.0);
  EXPECT_GE(doc.detection, 0.0);
  EXPECT_GE(doc.decision, 0.0);
  EXPECT_GE(doc.propagation, 0.0);
  const double sum = doc.detection + doc.decision + doc.propagation;
  EXPECT_NEAR(sum, doc.convergence_time, doc.sample_cadence);
}

TEST(Explain, GoldenRunHasCriticalPathAndHealth) {
  const auto doc = core::explain_run_dir(golden_dir());
  EXPECT_TRUE(doc.last_hole.present);
  ASSERT_TRUE(doc.exchange.present);
  EXPECT_TRUE(doc.exchange.completed);
  EXPECT_GE(doc.exchange.last_t, doc.exchange.first_t);
  EXPECT_FALSE(doc.exchange.legs.empty());
  EXPECT_EQ(doc.exchange.legs.front().leg, "send");
  // A 30% loss run must have retransmitting nodes in the health table.
  ASSERT_FALSE(doc.nodes.empty());
  ASSERT_FALSE(doc.links.empty());
  bool any_retx = false;
  for (const auto& n : doc.nodes) any_retx = any_retx || n.retx > 0;
  EXPECT_TRUE(any_retx);
  // Scores arrive worst-first.
  for (std::size_t i = 1; i < doc.nodes.size(); ++i) {
    EXPECT_GE(doc.nodes[i - 1].score, doc.nodes[i].score);
  }
  for (std::size_t i = 1; i < doc.links.size(); ++i) {
    EXPECT_GE(doc.links[i - 1].score, doc.links[i].score);
  }
}

TEST(Explain, TopNTruncatesHealthTables) {
  core::ExplainOptions opts;
  opts.top_n = 2;
  const auto doc = core::explain_run_dir(golden_dir(), opts);
  EXPECT_LE(doc.nodes.size(), 2u);
  EXPECT_LE(doc.links.size(), 2u);
}

// --- root-cause diffing: lossy run vs loss-free twin -----------------------

std::vector<geom::Point2> lattice_positions(double side, double spacing) {
  std::vector<geom::Point2> out;
  for (double x = spacing / 2.0; x < side; x += spacing) {
    for (double y = spacing / 2.0; y < side; y += spacing) {
      out.push_back({x, y});
    }
  }
  return out;
}

core::SimRunConfig diff_config(std::uint64_t seed, const std::string& dir) {
  core::SimRunConfig cfg;
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
  cfg.initial_positions = lattice_positions(20.0, 10.0);
  cfg.trace = true;
  cfg.trace_jsonl = dir + "/trace.jsonl";
  cfg.timeline_interval = 0.5;
  cfg.timeline_jsonl = dir + "/timeline.jsonl";
  cfg.field_interval = 1.0;
  cfg.field_jsonl = dir + "/field.jsonl";
  cfg.audit_jsonl = dir + "/audit.jsonl";
  return cfg;
}

TEST(ExplainDiff, LossAttributesToPropagationPhase) {
  namespace fs = std::filesystem;
  const auto base = decor_test::unique_temp_path("decor_explain_diff");
  const auto clean = base / "clean";
  const auto lossy = base / "lossy";
  fs::remove_all(base);
  fs::create_directories(clean);
  fs::create_directories(lossy);

  {
    auto cfg = diff_config(7, clean.string());
    core::GridSimHarness harness(cfg);
    ASSERT_TRUE(harness.run().reached_full_coverage);
  }
  {
    auto cfg = diff_config(7, lossy.string());
    cfg.radio.loss_prob = 0.3;
    core::GridSimHarness harness(cfg);
    ASSERT_TRUE(harness.run().reached_full_coverage);
  }

  const auto a = core::explain_run_dir(clean.string());
  const auto b = core::explain_run_dir(lossy.string());
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);

  const auto diff = core::explain_diff(a, b);
  EXPECT_TRUE(diff.comparable);
  // Loss stretches the in-flight exchange spans: the regression lands in
  // the propagation phase, not detection (unchanged cadence) or decision.
  EXPECT_GT(diff.propagation_delta, 0.0);
  EXPECT_EQ(diff.dominant_phase, "propagation");
  fs::remove_all(base);
}

TEST(ExplainDiff, IdenticalRunsHaveNoDominantPhase) {
  const auto doc = core::explain_run_dir(golden_dir());
  const auto diff = core::explain_diff(doc, doc);
  EXPECT_TRUE(diff.comparable);
  EXPECT_DOUBLE_EQ(diff.convergence_delta, 0.0);
  EXPECT_EQ(diff.dominant_phase, "none");
  EXPECT_TRUE(diff.suspect_nodes.empty());
  EXPECT_TRUE(diff.suspect_links.empty());
}

// --- graceful degradation on damaged inputs --------------------------------

class SyntheticRunDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = decor_test::unique_temp_path("decor_explain_synth");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const std::string& name, const std::string& content) {
    std::ofstream f(dir_ / name, std::ios::binary);
    f << content;
  }

  std::string timeline() const {
    return "{\"schema\":\"decor.timeline.v1\"}\n"
           "{\"t\":0,\"covered\":0.5,\"uncovered\":2,\"alive\":2}\n"
           "{\"t\":0.5,\"covered\":0.5,\"uncovered\":2,\"alive\":2}\n"
           "{\"t\":1,\"covered\":1,\"uncovered\":0,\"alive\":3}\n";
  }

  std::filesystem::path dir_;
};

TEST_F(SyntheticRunDir, AuditsWithoutCausalityIdsAreCountedWarnings) {
  write("timeline.jsonl", timeline());
  write("audit.jsonl",
        "{\"schema\":\"decor.audit.v1\"}\n"
        "{\"t\":0.4,\"actor\":1,\"cell\":0,\"reason\":\"benefit\",\"x\":1,"
        "\"y\":1,\"benefit\":2,\"newly_satisfied\":2,\"trace_id\":0}\n"
        "{\"t\":0.9,\"actor\":1,\"cell\":0,\"reason\":\"benefit\",\"x\":2,"
        "\"y\":2,\"benefit\":1,\"newly_satisfied\":1,\"trace_id\":0}\n");

  const auto doc = core::explain_run_dir(dir_.string());
  EXPECT_TRUE(doc.converged);
  ASSERT_TRUE(doc.closing_placement.present);
  EXPECT_DOUBLE_EQ(doc.closing_placement.t, 0.9);
  EXPECT_FALSE(doc.exchange.present);
  EXPECT_TRUE(has_warning(doc, "2 audit records carry no causality id"));
  EXPECT_TRUE(has_warning(doc, "closing placement carries no causality id"));
}

TEST_F(SyntheticRunDir, TruncatedTraceRingIsAWarningNotAFailure) {
  write("timeline.jsonl", timeline());
  write("audit.jsonl",
        "{\"schema\":\"decor.audit.v1\"}\n"
        "{\"t\":0.9,\"actor\":1,\"cell\":0,\"reason\":\"benefit\",\"x\":2,"
        "\"y\":2,\"benefit\":1,\"newly_satisfied\":1,\"trace_id\":42}\n");
  // The ring rotated past the audited exchange: the trace only retains
  // unrelated later records.
  write("trace.jsonl",
        "{\"seq\":900,\"t\":0.95,\"kind\":\"tx\",\"node\":7,\"trace\":99,"
        "\"detail\":\"kind=2\"}\n");

  const auto doc = core::explain_run_dir(dir_.string());
  EXPECT_TRUE(doc.converged);
  ASSERT_TRUE(doc.closing_placement.present);
  EXPECT_FALSE(doc.exchange.present);
  EXPECT_TRUE(has_warning(doc, "not in the trace"));
  EXPECT_TRUE(has_warning(doc, "1 audited placement have no trace records"));
}

TEST_F(SyntheticRunDir, DeadLeaderExchangeNeverCompletes) {
  write("timeline.jsonl", timeline());
  write("audit.jsonl",
        "{\"schema\":\"decor.audit.v1\"}\n"
        "{\"t\":0.9,\"actor\":1,\"cell\":0,\"reason\":\"benefit\",\"x\":2,"
        "\"y\":2,\"benefit\":1,\"newly_satisfied\":1,\"trace_id\":42}\n");
  // The leader decided, transmitted, retransmitted — and died before any
  // acknowledgement came back.
  write("trace.jsonl",
        "{\"seq\":1,\"t\":0.9,\"kind\":\"tx\",\"node\":1,\"trace\":42,"
        "\"detail\":\"kind=5\"}\n"
        "{\"seq\":2,\"t\":0.92,\"kind\":\"rx\",\"node\":2,\"trace\":42,"
        "\"detail\":\"kind=5 from=1\"}\n"
        "{\"seq\":3,\"t\":0.95,\"kind\":\"tx\",\"node\":1,\"trace\":42,"
        "\"detail\":\"kind=5\"}\n"
        "{\"seq\":4,\"t\":0.99,\"kind\":\"kill\",\"node\":1,\"trace\":0,"
        "\"detail\":\"\"}\n");

  const auto doc = core::explain_run_dir(dir_.string());
  ASSERT_TRUE(doc.exchange.present);
  EXPECT_FALSE(doc.exchange.completed);
  EXPECT_EQ(doc.exchange.retransmits, 1u);
  ASSERT_EQ(doc.exchange.legs.size(), 3u);
  EXPECT_EQ(doc.exchange.legs[0].leg, "send");
  EXPECT_EQ(doc.exchange.legs[1].leg, "rx");
  EXPECT_EQ(doc.exchange.legs[1].from, 1);
  EXPECT_EQ(doc.exchange.legs[2].leg, "retransmit");
  EXPECT_TRUE(has_warning(doc, "never completed"));
}

TEST_F(SyntheticRunDir, MissingArtifactsDegradeToWarnings) {
  write("timeline.jsonl", timeline());
  const auto doc = core::explain_run_dir(dir_.string());
  EXPECT_TRUE(doc.converged);
  EXPECT_FALSE(doc.closing_placement.present);
  EXPECT_FALSE(doc.last_hole.present);
  EXPECT_FALSE(doc.exchange.present);
  EXPECT_TRUE(has_warning(doc, "no decor.audit.v1 artifact"));
  EXPECT_TRUE(has_warning(doc, "no decor.field.v1 artifact"));
  EXPECT_TRUE(has_warning(doc, "no trace artifact"));
  // Still serializes deterministically.
  EXPECT_EQ(core::explain_to_json(doc), core::explain_to_json(doc));
}

TEST_F(SyntheticRunDir, NeverConvergedRunIsExplainedOverTheHorizon) {
  write("timeline.jsonl",
        "{\"schema\":\"decor.timeline.v1\"}\n"
        "{\"t\":0,\"covered\":0.5,\"uncovered\":2,\"alive\":2}\n"
        "{\"t\":0.5,\"covered\":0.5,\"uncovered\":2,\"alive\":2}\n"
        "{\"t\":1,\"covered\":0.5,\"uncovered\":2,\"alive\":2}\n");
  const auto doc = core::explain_run_dir(dir_.string());
  EXPECT_FALSE(doc.converged);
  EXPECT_TRUE(has_warning(doc, "never converged"));
  const double sum = doc.detection + doc.decision + doc.propagation;
  EXPECT_NEAR(sum, 1.0, doc.sample_cadence);
}

TEST_F(SyntheticRunDir, NotADirectoryThrows) {
  EXPECT_THROW(core::explain_run_dir((dir_ / "nope").string()),
               common::RequireError);
}

}  // namespace
