// TUI dashboard renderer: golden frames, geometry, ingest and DTLM
// follow.
//
// The golden test pins the renderer byte-for-byte against
// tests/golden/watch_frames.txt (regenerate after an intentional layout
// change with:
//   decor watch tests/golden/watch_run --cols=48 --rows=14
//     --out=tests/golden/watch_frames.txt
// as one command line). Everything else checks the
// invariants that survive layout changes: exact line geometry, ingest
// semantics and resynchronization over interleaved non-DTLM output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "decor/watch.hpp"
#include "temp_path.hpp"

namespace {

using decor::core::DashboardState;
using decor::core::WatchOptions;

namespace fs = std::filesystem;

const std::string kGoldenRun = std::string(WATCH_GOLDEN_DIR) + "/watch_run";
const std::string kGoldenFrames =
    std::string(WATCH_GOLDEN_DIR) + "/watch_frames.txt";

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Terminal display width: count bytes that are not UTF-8 continuation
/// bytes (all dashboard glyphs are single-column).
std::size_t display_width(const std::string& line) {
  std::size_t w = 0;
  for (const unsigned char c : line) {
    if ((c & 0xC0) != 0x80) ++w;
  }
  return w;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

/// One DTLM wire frame, length prefix computed from the payload.
std::string dtlm(const std::string& stream, int seq,
                 const std::string& payload) {
  return "DTLM " + stream + " " + std::to_string(seq) + " " +
         std::to_string(payload.size()) + "\n" + payload + "\n";
}

TEST(Watch, ReplayMatchesGoldenFrames) {
  WatchOptions opts;
  opts.cols = 48;
  opts.rows = 14;
  std::ostringstream out;
  const std::size_t frames =
      decor::core::watch_replay_dir(kGoldenRun, opts, out);
  // 3 timeline samples + 2 field snapshots, merged in time order.
  EXPECT_EQ(frames, 5u);
  const std::string expected = read_file(kGoldenFrames);
  ASSERT_FALSE(expected.empty()) << "missing golden: " << kGoldenFrames;
  EXPECT_EQ(out.str(), expected);

  // Byte-determinism: a second replay renders identical bytes.
  std::ostringstream again;
  decor::core::watch_replay_dir(kGoldenRun, opts, again);
  EXPECT_EQ(again.str(), out.str());
}

TEST(Watch, ReplaySubsamplesToMaxFrames) {
  WatchOptions opts;
  opts.cols = 48;
  opts.rows = 14;
  opts.max_frames = 2;  // first and last event kept
  std::ostringstream out;
  EXPECT_EQ(decor::core::watch_replay_dir(kGoldenRun, opts, out), 2u);
}

TEST(Watch, FramesHaveExactGeometry) {
  DashboardState state;
  state.ingest("field",
               "{\"schema\":\"decor.field.v1\",\"k\":2,\"cols\":4,"
               "\"rows\":4}");
  state.ingest("field",
               "{\"t\":0.5,\"total_deficit\":14,\"uncovered\":10,"
               "\"raster\":[2,2,1,0,2,1,1,0,1,1,0,0,2,0,0,1]}");
  state.ingest("timeline",
               "{\"t\":1,\"covered\":0.5,\"uncovered\":8,\"alive\":15,"
               "\"arq_in_flight\":2,\"arq_sent\":10,\"arq_retx\":1}");
  for (const std::size_t cols : {32u, 48u, 100u}) {
    for (const std::size_t rows : {10u, 14u, 30u}) {
      const std::string frame =
          decor::core::render_dashboard_frame(state, cols, rows);
      const auto lines = split_lines(frame);
      ASSERT_EQ(lines.size(), rows) << cols << "x" << rows;
      for (const auto& line : lines) {
        EXPECT_EQ(display_width(line), cols) << cols << "x" << rows;
      }
    }
  }
  // Geometry below the layout minimum is clamped, not honored.
  const auto tiny = split_lines(decor::core::render_dashboard_frame(state, 1, 1));
  EXPECT_EQ(tiny.size(), 10u);
  EXPECT_EQ(display_width(tiny[0]), 32u);
}

TEST(Watch, IngestParsesStreamsAndCountsMalformed) {
  DashboardState state;
  EXPECT_TRUE(state.ingest("field",
                           "{\"schema\":\"decor.field.v1\",\"k\":3,"
                           "\"cols\":8,\"rows\":2}"));
  EXPECT_EQ(state.k(), 3u);
  EXPECT_EQ(state.field_cols(), 8u);
  EXPECT_EQ(state.field_rows(), 2u);
  EXPECT_FALSE(state.has_field());  // geometry alone, no raster yet

  EXPECT_TRUE(state.ingest("timeline",
                           "{\"t\":2,\"covered\":0.75,\"uncovered\":3,"
                           "\"alive\":9,\"arq_in_flight\":1}"));
  ASSERT_EQ(state.timeline().size(), 1u);
  EXPECT_FALSE(state.timeline()[0].has_arq);  // no arq_sent column
  EXPECT_EQ(state.timeline()[0].alive, 9u);
  EXPECT_DOUBLE_EQ(state.last_t(), 2.0);

  EXPECT_TRUE(state.ingest("metrics", "{\"t\":2,\"counters\":{}}"));
  EXPECT_TRUE(state.ingest("audit", "{\"t\":2,\"action\":\"place\"}"));
  EXPECT_EQ(state.metrics_snapshots(), 1u);
  EXPECT_EQ(state.audit_records(), 1u);

  EXPECT_FALSE(state.ingest("timeline", "not json at all"));
  EXPECT_FALSE(state.ingest("field", "{truncated"));
  EXPECT_EQ(state.malformed(), 2u);
  // Unknown stream names are ignored without being malformed.
  EXPECT_TRUE(state.ingest("mystery", "{\"t\":9}"));
  EXPECT_EQ(state.malformed(), 2u);
}

TEST(Watch, FollowResyncsOverInterleavedOutput) {
  const fs::path capture =
      decor_test::unique_temp_path("decor_watch_follow_test", ".dtlm");
  {
    std::ofstream f(capture, std::ios::binary);
    f << "grid sim: placed 40 nodes\n";  // ordinary program output
    f << dtlm("timeline", 0, "{\"schema\":\"decor.timeline.v1\"}");
    f << "some other chatter\n";
    f << dtlm("timeline", 1,
              "{\"t\":1,\"covered\":0.5,\"uncovered\":8,\"alive\":15,"
              "\"arq_in_flight\":0}");
    f << dtlm("metrics", 1, "{\"t\":1,\"counters\":{\"x\":1}}");
    f << dtlm("field", 0,
              "{\"schema\":\"decor.field.v1\",\"k\":2,\"cols\":2,"
              "\"rows\":2}");
    f << dtlm("field", 1,
              "{\"t\":1.5,\"total_deficit\":2,\"uncovered\":2,"
              "\"raster\":[1,1,0,0]}");
    f << "trailing noise without newline";
  }

  WatchOptions opts;
  opts.cols = 40;
  opts.rows = 12;
  std::string first;
  for (int round = 0; round < 2; ++round) {
    std::FILE* in = std::fopen(capture.string().c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::ostringstream out;
    // Frames only for timeline/field data; headers and metrics feed the
    // state silently.
    EXPECT_EQ(decor::core::watch_follow(in, opts, out), 2u);
    std::fclose(in);
    if (round == 0) {
      first = out.str();
      EXPECT_NE(first.find("covered=50.0%"), std::string::npos);
      EXPECT_NE(first.find("deficit=2.0"), std::string::npos);
    } else {
      EXPECT_EQ(out.str(), first);  // follow is deterministic too
    }
  }
  fs::remove(capture);
}

TEST(Watch, FollowSurfacesDroppedFramesFromSeqGaps) {
  const fs::path capture =
      decor_test::unique_temp_path("decor_watch_dropped_test", ".dtlm");
  {
    std::ofstream f(capture, std::ios::binary);
    f << dtlm("timeline", 0, "{\"schema\":\"decor.timeline.v1\"}");
    f << dtlm("timeline", 1,
              "{\"t\":1,\"covered\":0.5,\"uncovered\":8,\"alive\":15,"
              "\"arq_in_flight\":0}");
    // A TCP sink under backpressure drops whole frames: seq jumps 1 -> 4,
    // so two frames never arrived and the dashboard must say so.
    f << dtlm("timeline", 4,
              "{\"t\":4,\"covered\":0.75,\"uncovered\":4,\"alive\":15,"
              "\"arq_in_flight\":0}");
  }

  WatchOptions opts;
  opts.cols = 120;  // wide enough that the status line is not clipped
  opts.rows = 12;
  std::FILE* in = std::fopen(capture.string().c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::ostringstream out;
  EXPECT_EQ(decor::core::watch_follow(in, opts, out), 2u);
  std::fclose(in);
  // The first frame saw no gap; the final frame carries the count.
  EXPECT_EQ(out.str().find("dropped="),
            out.str().rfind("dropped=2"));
  EXPECT_NE(out.str().find("dropped=2"), std::string::npos);
  fs::remove(capture);
}

TEST(Watch, DashboardStateAccumulatesDroppedFrames) {
  DashboardState state;
  EXPECT_EQ(state.dropped_frames(), 0u);
  state.note_dropped(2);
  state.note_dropped(1);
  EXPECT_EQ(state.dropped_frames(), 3u);
}

}  // namespace
