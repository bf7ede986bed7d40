// Differential test of core::TraceIndex against the JSON DOM it replaces:
// for the committed golden trace and for hand-built lines that leave the
// canonical writer shape (reordered keys, whitespace, escapes, exponent
// timestamps, wrong types, missing fields, foreign objects, blank and
// truncated lines), every indexed record must equal, field by field, what
// common::parse_json plus the DOM accessors' defaults yield, and the
// malformed counts must match. Also pins the loader's classification of
// trace files through core::load_run_artifacts.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "decor/artifacts.hpp"
#include "decor/trace_index.hpp"
#include "sim/trace.hpp"
#include "sim/trace_export.hpp"
#include "temp_path.hpp"

namespace {

using decor::common::JsonValue;
using decor::core::TraceEntry;
using decor::core::TraceIndex;
using decor::core::TraceRecordKind;

const std::string kGoldenTrace =
    std::string(TRACE_INDEX_GOLDEN_DIR) + "/explain_run/trace.jsonl";

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// One trace record as the DOM consumers read it.
struct DomRecord {
  std::uint64_t seq = 0;
  double t = 0.0;
  TraceRecordKind kind = TraceRecordKind::kNone;
  std::uint32_t node = 0;
  std::uint64_t trace = 0;
  std::string detail;
};

std::optional<DomRecord> dom_record(std::string_view line) {
  const auto v = decor::common::parse_json(line);
  if (!v) return std::nullopt;
  const auto num = [&](std::string_view key) {
    const JsonValue* m = v->find(key);
    return m != nullptr ? m->as_number() : 0.0;
  };
  DomRecord r;
  r.seq = static_cast<std::uint64_t>(num("seq"));
  r.t = num("t");
  if (const JsonValue* k = v->find("kind"); k != nullptr && k->is_string()) {
    const std::string& name = k->as_string();
    r.kind = name == "tx"         ? TraceRecordKind::kTx
             : name == "rx"       ? TraceRecordKind::kRx
             : name == "drop"     ? TraceRecordKind::kDrop
             : name == "protocol" ? TraceRecordKind::kProtocol
                                  : TraceRecordKind::kOther;
  }
  r.node = static_cast<std::uint32_t>(num("node"));
  r.trace = static_cast<std::uint64_t>(num("trace"));
  if (const JsonValue* d = v->find("detail")) r.detail = d->as_string();
  return r;
}

/// Indexes `text` and checks it against a line-by-line DOM parse.
void expect_matches_dom(const std::string& text) {
  std::vector<DomRecord> expected;
  std::size_t malformed = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (auto r = dom_record(line)) {
      expected.push_back(std::move(*r));
    } else {
      ++malformed;
    }
  }
  const TraceIndex index(text);
  EXPECT_EQ(index.malformed(), malformed);
  ASSERT_EQ(index.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const TraceEntry& got = index.records()[i];
    EXPECT_EQ(got.seq, expected[i].seq);
    EXPECT_EQ(got.t, expected[i].t);
    EXPECT_EQ(got.kind, expected[i].kind);
    EXPECT_EQ(got.node, expected[i].node);
    EXPECT_EQ(got.trace, expected[i].trace);
    EXPECT_EQ(index.detail(got), expected[i].detail);
  }
}

TEST(TraceIndex, GoldenTraceMatchesDom) {
  const std::string text = read_file(kGoldenTrace);
  ASSERT_FALSE(text.empty());
  expect_matches_dom(text);
  const TraceIndex index(text);
  EXPECT_EQ(index.size(), 6323u);
  EXPECT_EQ(index.malformed(), 0u);
}

TEST(TraceIndex, DecodesTheWriterShape) {
  std::string line;
  decor::sim::append_trace_record_json(line, 7, 1.25, decor::sim::TraceKind::kRx,
                                       3, 9, "kind=5 from=2");
  const TraceIndex index(line + "\n");
  ASSERT_EQ(index.size(), 1u);
  const TraceEntry& r = index.records()[0];
  EXPECT_EQ(r.seq, 7u);
  EXPECT_EQ(r.t, 1.25);
  EXPECT_EQ(r.kind, TraceRecordKind::kRx);
  EXPECT_EQ(r.node, 3u);
  EXPECT_EQ(r.trace, 9u);
  EXPECT_EQ(index.detail(r), "kind=5 from=2");
}

TEST(TraceIndex, WriterEscapesRoundTrip) {
  // Details the writer must escape (quote, backslash, control bytes) come
  // back decoded, next to canonical lines whose details stay in place.
  const std::string detail = "say \"hi\"\\ tab\t bell\x07 nl\n";
  std::string text;
  decor::sim::append_trace_record_json(text, 1, 0.5,
                                       decor::sim::TraceKind::kProtocol, 0, 0,
                                       "converged");
  text += '\n';
  decor::sim::append_trace_record_json(text, 2, 0.75, decor::sim::TraceKind::kTx,
                                       4, 11, detail);
  text += '\n';
  expect_matches_dom(text);
  const TraceIndex index(text);
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index.detail(index.records()[0]), "converged");
  EXPECT_EQ(index.detail(index.records()[1]), detail);
}

TEST(TraceIndex, KeysInAnotherOrder) {
  expect_matches_dom(
      "{\"detail\":\"kind=1 from=4\",\"trace\":3,\"node\":2,\"kind\":\"rx\","
      "\"t\":0.5,\"seq\":1}\n"
      "{\"seq\":2,\"kind\":\"tx\",\"t\":0.75,\"node\":4,\"trace\":3,"
      "\"detail\":\"kind=1\"}\n");
}

TEST(TraceIndex, ExtraWhitespace) {
  expect_matches_dom(
      "{ \"seq\": 1, \"t\": 0.5, \"kind\": \"tx\", \"node\": 2, \"trace\": 3,"
      " \"detail\": \"kind=1\" }\n"
      "  {\"seq\":2,\"t\":1,\"kind\":\"rx\",\"node\":1,\"trace\":3,"
      "\"detail\":\"kind=1 from=2\"}\t\r\n");
}

TEST(TraceIndex, EscapesInDetail) {
  expect_matches_dom(
      "{\"seq\":1,\"t\":0.5,\"kind\":\"protocol\",\"node\":2,\"trace\":0,"
      "\"detail\":\"dead-peer=\\\"7\\\"\"}\n"
      "{\"seq\":2,\"t\":0.6,\"kind\":\"drop\",\"node\":2,\"trace\":5,"
      "\"detail\":\"crc \\u0041\\u00e9 from=3\\/\\\\\"}\n"
      "{\"seq\":3,\"t\":0.7,\"kind\":\"t\\u0078\",\"node\":2,\"trace\":5,"
      "\"detail\":\"kind=2\"}\n");
}

TEST(TraceIndex, ExponentAndSignedNumbers) {
  expect_matches_dom(
      "{\"seq\":1,\"t\":1e-05,\"kind\":\"tx\",\"node\":2,\"trace\":3,"
      "\"detail\":\"kind=1\"}\n"
      "{\"seq\":2,\"t\":2.5E+2,\"kind\":\"tx\",\"node\":2,\"trace\":3,"
      "\"detail\":\"kind=1\"}\n"
      "{\"seq\":3,\"t\":-0,\"kind\":\"tx\",\"node\":2.0,\"trace\":3e0,"
      "\"detail\":\"kind=1\"}\n"
      "{\"seq\":1234567890123456,\"t\":0,\"kind\":\"tx\",\"node\":2,"
      "\"trace\":98765432109876543,\"detail\":\"kind=1\"}\n"
      "{\"seq\":4,\"t\":1e999,\"kind\":\"tx\",\"node\":2,\"trace\":3,"
      "\"detail\":\"kind=1\"}\n");
}

TEST(TraceIndex, WrongTypesAndMissingFields) {
  expect_matches_dom(
      "{\"seq\":1,\"t\":0.5,\"kind\":3,\"node\":2,\"trace\":3,"
      "\"detail\":\"kind=1\"}\n"
      "{\"seq\":2,\"t\":\"0.5\",\"kind\":\"tx\",\"node\":null,\"trace\":true,"
      "\"detail\":7}\n"
      "{\"seq\":3,\"kind\":\"rx\"}\n"
      "{\"kind\":\"protocol\",\"detail\":\"converged\"}\n"
      "{}\n");
}

TEST(TraceIndex, ForeignDocumentsAreRecordsWithoutKind) {
  expect_matches_dom(
      "{\"schema\":\"decor.audit.v1\"}\n"
      "[1,2,3]\n"
      "42\n"
      "\"text\"\n"
      "{\"seq\":1,\"t\":0,\"kind\":\"tx\",\"node\":1,\"trace\":1,"
      "\"detail\":\"kind=1\",\"extra\":true}\n");
  const TraceIndex index("[1,2,3]\n{\"a\":1}\n");
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index.records()[0].kind, TraceRecordKind::kNone);
  EXPECT_EQ(index.records()[1].kind, TraceRecordKind::kNone);
}

TEST(TraceIndex, BlankAndMalformedLines) {
  const std::string good =
      "{\"seq\":1,\"t\":0.5,\"kind\":\"tx\",\"node\":2,\"trace\":3,"
      "\"detail\":\"kind=1\"}";
  expect_matches_dom("\n\n" + good + "\n\n" + good + "\n");
  expect_matches_dom(good + "\nnot json\n{\"seq\":2,\"t\":\n" + good + "\n");
  // Control characters inside a string are invalid JSON on both paths.
  expect_matches_dom(
      "{\"seq\":1,\"t\":0.5,\"kind\":\"tx\",\"node\":2,\"trace\":3,"
      "\"detail\":\"a\tb\"}\n");
  const TraceIndex index(good + "\n\n" + "garbage\n");
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.malformed(), 1u);
  EXPECT_TRUE(TraceIndex("").empty());
  EXPECT_TRUE(TraceIndex("\n\n").empty());
}

TEST(TraceIndex, TruncatedLastLine) {
  const std::string text = read_file(kGoldenTrace);
  ASSERT_FALSE(text.empty());
  // Cut mid-record, with and without a trailing newline.
  const std::string cut = text + "{\"seq\":999999,\"t\":1.5,\"kind\"";
  expect_matches_dom(cut);
  expect_matches_dom(cut + "\n");
  const TraceIndex index(cut);
  EXPECT_EQ(index.size(), 6323u);
  EXPECT_EQ(index.malformed(), 1u);
  // A canonical line missing only its closing brace is malformed too.
  expect_matches_dom(
      "{\"seq\":1,\"t\":0.5,\"kind\":\"tx\",\"node\":2,\"trace\":3,"
      "\"detail\":\"kind=1\"");
}

TEST(TraceIndex, DetailHelpers) {
  using decor::core::parse_detail_from;
  using decor::sim::parse_detail_kind;
  EXPECT_EQ(parse_detail_from("kind=3 from=12"), 12);
  EXPECT_EQ(parse_detail_from("crc from=0"), 0);
  EXPECT_EQ(parse_detail_from("from=x"), -1);
  EXPECT_EQ(parse_detail_from("kind=3"), -1);
  // parse_detail_kind reads its digits the way std::atoi does.
  EXPECT_EQ(parse_detail_kind("kind= 7 from=1"), 7);
  EXPECT_EQ(parse_detail_kind("kind=-3"), -3);
  EXPECT_EQ(parse_detail_kind("kind=+4"), 4);
  EXPECT_EQ(parse_detail_kind("kind=x"), 0);
  EXPECT_EQ(parse_detail_kind("kind="), 0);
  EXPECT_EQ(parse_detail_kind("kin=3"), -1);
}

// --- classification through the artifact loader -----------------------------

class TraceArtifactDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = decor_test::unique_temp_path("decor_trace_index_test");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const std::string& name, const std::string& content) {
    std::ofstream f(dir_ / name, std::ios::binary);
    f << content;
  }

  std::vector<decor::core::Artifact> load() const {
    return decor::core::load_run_artifacts(dir_.string(), "test");
  }

  std::filesystem::path dir_;
};

const char* kTraceLine =
    "{\"seq\":1,\"t\":0.5,\"kind\":\"tx\",\"node\":2,\"trace\":3,"
    "\"detail\":\"kind=1\"}\n";

TEST_F(TraceArtifactDir, TraceShapedFileIsIndexed) {
  write("trace.jsonl", std::string("garbage\n") + kTraceLine + kTraceLine +
                           "{\"seq\":9,\"t\":");
  const auto artifacts = load();
  ASSERT_EQ(artifacts.size(), 1u);
  const auto& a = artifacts[0];
  EXPECT_EQ(a.kind, "trace");
  EXPECT_TRUE(a.records.empty());
  EXPECT_EQ(a.trace.size(), 2u);
  EXPECT_EQ(a.record_count(), 2u);
  EXPECT_EQ(a.malformed, 2u);
  const auto warnings = decor::core::collect_artifact_warnings(artifacts);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].reason, "2 malformed lines");
}

TEST_F(TraceArtifactDir, FirstLineDecidesTheClassification) {
  // A first record without seq/kind is not trace-shaped: the file stays
  // an "other" artifact with DOM records, even though trace lines follow.
  write("a.jsonl", std::string("{\"foo\":1}\n") + kTraceLine);
  // A schema header makes the file a schema stream, never a trace.
  write("b.jsonl", std::string("{\"schema\":\"decor.audit.v1\"}\n") +
                       kTraceLine);
  // Trace-shaped with reordered keys still classifies as a trace.
  write("c.jsonl",
        "{\"kind\":\"rx\",\"seq\":4,\"detail\":\"kind=1 from=2\"}\n");
  const auto artifacts = load();
  ASSERT_EQ(artifacts.size(), 3u);
  EXPECT_EQ(artifacts[0].kind, "other");
  EXPECT_EQ(artifacts[0].records.size(), 2u);
  EXPECT_TRUE(artifacts[0].trace.empty());
  EXPECT_EQ(artifacts[1].kind, "audit");
  EXPECT_EQ(artifacts[1].records.size(), 1u);
  EXPECT_EQ(artifacts[2].kind, "trace");
  ASSERT_EQ(artifacts[2].trace.size(), 1u);
  EXPECT_EQ(artifacts[2].trace.records()[0].kind, TraceRecordKind::kRx);
  EXPECT_EQ(artifacts[2].trace.detail(artifacts[2].trace.records()[0]),
            "kind=1 from=2");
}

TEST_F(TraceArtifactDir, EmptyFileWarns) {
  write("trace.jsonl", "");
  const auto warnings = decor::core::collect_artifact_warnings(load());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].reason, "empty");
}

}  // namespace
