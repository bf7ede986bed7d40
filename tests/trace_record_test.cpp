// Trace records: fixed-size slots, the one JSONL formatter, the escape
// fast path and the rule for when records stay in memory.
//
// The expected lines are the bytes the string-detail formatter (one
// std::string detail per record, escaped a character at a time) wrote
// for the same records. Slots must reproduce them exactly: on the live
// stream, through Trace::append_json, and as rendered details.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "decor/decor.hpp"
#include "decor/voronoi_sim.hpp"
#include "sim/trace.hpp"
#include "temp_path.hpp"

namespace {

using namespace decor;
using sim::TraceKind;
using sim::TraceShape;

class LineSink : public common::TelemetrySink {
 public:
  explicit LineSink(std::vector<std::string>* lines) : lines_(lines) {}
  bool wants(common::TelemetryStream s) const noexcept override {
    return s == common::TelemetryStream::kTrace;
  }
  void on_event(const common::TelemetryEvent& e) override {
    lines_->emplace_back(e.line);
  }

 private:
  std::vector<std::string>* lines_;
};

struct Row {
  sim::Time at;
  TraceKind kind;
  std::uint32_t node;
  TraceShape shape;
  int msg_kind;
  std::uint32_t from;
  std::uint64_t trace_id;
  std::string text;  // kText and kNone
  std::string detail;
  std::string line;
};

const std::string kAwkward =
    "fault:\"q\" \\ \n\t\r\x01\x7f \xc3\xa9";  // quote, backslash, controls,
                                             // DEL, UTF-8

/// One record of every shape, in seq order 1..9.
std::vector<Row> rows() {
  return {
      {0.25, TraceKind::kTx, 3, TraceShape::kKind, 7, 3, 11, "", "kind=7",
       R"({"seq":1,"t":0.25,"kind":"tx","node":3,"trace":11,"detail":"kind=7"})"},
      {1.5, TraceKind::kRx, 4, TraceShape::kKindFrom, 7, 3, 11, "",
       "kind=7 from=3",
       R"({"seq":2,"t":1.5,"kind":"rx","node":4,"trace":11,"detail":"kind=7 from=3"})"},
      {2.0, TraceKind::kDrop, 5, TraceShape::kKind, 12, 3, 12, "", "kind=12",
       R"({"seq":3,"t":2,"kind":"drop","node":5,"trace":12,"detail":"kind=12"})"},
      {3.0000000000000004, TraceKind::kDrop, 4294967295u,
       TraceShape::kCrcKindFrom, -1, 4294967295u, 13, "",
       "crc kind=-1 from=4294967295",
       R"({"seq":4,"t":3.0000000000000004,"kind":"drop","node":4294967295,"trace":13,"detail":"crc kind=-1 from=4294967295"})"},
      {0.0, TraceKind::kSpawn, 0, TraceShape::kNone, 0, 0, 0, "", "",
       R"({"seq":5,"t":0,"kind":"spawn","node":0,"trace":0,"detail":""})"},
      {12.75, TraceKind::kKill, 9, TraceShape::kNone, 0, 0, 0, "", "",
       R"({"seq":6,"t":12.75,"kind":"kill","node":9,"trace":0,"detail":""})"},
      {100.0, TraceKind::kReboot, 9, TraceShape::kNone, 0, 0, 0, "", "",
       R"({"seq":7,"t":100,"kind":"reboot","node":9,"trace":0,"detail":""})"},
      {1e-7, TraceKind::kProtocol, 0, TraceShape::kText, 0, 0, 0, kAwkward,
       kAwkward,
       "{\"seq\":8,\"t\":1e-07,\"kind\":\"protocol\",\"node\":0,\"trace\":0,"
       "\"detail\":\"fault:\\\"q\\\" \\\\ \\n\\t\\r\\u0001\x7f \xc3\xa9\"}"},
      {60.5, TraceKind::kProtocol, 0, TraceShape::kText, 0, 0, 0, "converged",
       "converged",
       R"({"seq":9,"t":60.5,"kind":"protocol","node":0,"trace":0,"detail":"converged"})"},
  };
}

void record_row(sim::Trace& trace, const Row& r) {
  if (r.shape == TraceShape::kText || r.shape == TraceShape::kNone) {
    trace.record(r.at, r.kind, r.node, r.text, r.trace_id);
  } else {
    trace.record_message(r.at, r.kind, r.node, r.shape, r.msg_kind, r.from,
                         r.trace_id);
  }
}

TEST(TraceRecordShapes, EveryShapeFormatsAsTheStringFormatterDid) {
  common::TelemetryBus bus;
  std::vector<std::string> streamed;
  bus.add_sink(std::make_unique<LineSink>(&streamed));
  sim::Trace trace;
  trace.attach_bus(&bus);
  trace.enable(true);
  const auto table = rows();
  for (const auto& r : table) record_row(trace, r);

  ASSERT_EQ(streamed.size(), table.size());
  ASSERT_EQ(trace.records().size(), table.size());
  const auto chrono = trace.chronological();
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(streamed[i], table[i].line) << "streamed row " << i;
    std::string again;
    trace.append_json(again, trace.records()[i]);
    EXPECT_EQ(again, table[i].line) << "buffered row " << i;
    EXPECT_EQ(chrono[i].detail, table[i].detail) << "detail of row " << i;
    EXPECT_EQ(trace.detail(trace.records()[i]), table[i].detail);
    std::string formatted;
    sim::append_trace_record_json(formatted, i + 1, table[i].at,
                                  table[i].kind, table[i].node,
                                  table[i].trace_id, table[i].detail);
    EXPECT_EQ(formatted, table[i].line) << "formatter row " << i;
  }
}

TEST(TraceRecordShapes, LargestSeqNodeAndTraceIdFit) {
  std::string line;
  sim::append_trace_record_json(
      line, std::numeric_limits<std::uint64_t>::max(),
      1.7976931348623157e308, TraceKind::kTimer, 4294967295u,
      std::numeric_limits<std::uint64_t>::max(), "");
  EXPECT_EQ(line,
            R"({"seq":18446744073709551615,"t":1.7976931348623157e+308,"kind":"timer","node":4294967295,"trace":18446744073709551615,"detail":""})");
}

TEST(TraceRecordShapes, RepeatedTextIsInternedAndSurvivesTheRing) {
  sim::Trace trace;
  trace.enable(true);
  trace.set_capacity(4);
  for (int i = 0; i < 50; ++i) {
    trace.record(i, TraceKind::kProtocol, 0,
                 i % 2 == 0 ? "dead-peer=7" : "watchdog_seed");
  }
  const auto chrono = trace.chronological();
  ASSERT_EQ(chrono.size(), 4u);
  EXPECT_EQ(chrono[0].detail, "dead-peer=7");
  EXPECT_EQ(chrono[1].detail, "watchdog_seed");
  EXPECT_EQ(trace.grep("dead-peer=").size(), 2u);
}

/// The per-character escape loop the fast path replaced, kept verbatim
/// as the reference.
std::string reference_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscape, FastPathMatchesThePerCharacterLoop) {
  std::mt19937_64 rng(20071);
  const std::string specials = "\"\\\n\t\r\x01\x1f\x7f\x80\xff";
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t len = rng() % 48;
    const bool clean = trial % 4 == 0;  // the common case: nothing to escape
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
      const auto pick = rng();
      if (clean) {
        s += static_cast<char>(0x20 + pick % 0x5f);
        if (s.back() == '"' || s.back() == '\\') s.back() = 'x';
      } else if (pick % 3 == 0) {
        s += specials[(pick >> 8) % specials.size()];
      } else {
        s += static_cast<char>(pick >> 16);
      }
    }
    std::string fast = "prefix:";
    common::append_json_escaped(fast, s);
    ASSERT_EQ(fast, "prefix:" + reference_escape(s)) << "trial " << trial;
  }
}

// --- when records stay in memory ------------------------------------------

TEST(TraceRetention, StreamOnlyTraceBuffersNothingButCountsEverything) {
  common::TelemetryBus bus;
  std::vector<std::string> streamed;
  bus.add_sink(std::make_unique<LineSink>(&streamed));
  sim::Trace trace;
  trace.attach_bus(&bus);
  trace.enable(true);
  trace.retain(false);
  for (const auto& r : rows()) record_row(trace, r);
  EXPECT_TRUE(trace.records().empty());
  EXPECT_EQ(trace.total_recorded(), rows().size());
  EXPECT_EQ(trace.dropped(), rows().size());
  EXPECT_EQ(streamed.size(), rows().size());
}

core::SimRunConfig small_grid() {
  core::SimRunConfig cfg;
  cfg.params.field = geom::make_rect(0, 0, 20, 20);
  cfg.params.num_points = 200;
  cfg.params.k = 1;
  cfg.seed = 11;
  cfg.run_time = 60.0;
  cfg.initial_positions = {{5, 5}, {15, 5}, {5, 15}, {15, 15}};
  return cfg;
}

struct RetentionCase {
  const char* name;
  bool trace;
  std::size_t capacity;
  bool jsonl;
  bool otlp;
  bool flight;
  bool retained;
};

TEST(TraceRetention, HarnessKeepsRecordsOnlyForAReader) {
  const RetentionCase cases[] = {
      {"jsonl alone", false, 0, true, false, false, false},
      {"otlp alone", false, 0, false, true, false, false},
      {"jsonl and otlp", false, 0, true, true, false, false},
      {"trace", true, 0, false, false, false, true},
      {"trace and jsonl", true, 0, true, false, false, true},
      {"ring and jsonl", false, 64, true, false, false, true},
      {"flight dir and jsonl", false, 0, true, false, true, true},
  };
  const auto dir = decor_test::unique_temp_path("retention");
  std::filesystem::create_directories(dir);
  std::uint64_t streamed_total = 0;
  for (const auto& c : cases) {
    auto cfg = small_grid();
    cfg.trace = c.trace;
    cfg.trace_capacity = c.capacity;
    if (c.jsonl) cfg.trace_jsonl = (dir / "trace.jsonl").string();
    if (c.otlp) cfg.otlp = (dir / "otlp.json").string();
    if (c.flight) cfg.flight_dir = (dir / "flight").string();
    core::GridSimHarness harness(cfg);
    harness.run();
    const auto& trace = harness.world().trace();
    ASSERT_GT(trace.total_recorded(), 0u) << c.name;
    if (streamed_total == 0) streamed_total = trace.total_recorded();
    // Keeping or dropping records never changes what was recorded.
    EXPECT_EQ(trace.total_recorded(), streamed_total) << c.name;
    EXPECT_EQ(trace.retaining(), c.retained) << c.name;
    if (!c.retained) {
      EXPECT_TRUE(trace.records().empty()) << c.name;
    } else if (c.capacity > 0) {
      EXPECT_EQ(trace.records().size(), c.capacity) << c.name;
    } else {
      EXPECT_EQ(trace.records().size(), trace.total_recorded()) << c.name;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
