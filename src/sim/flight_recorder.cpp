#include "sim/flight_recorder.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/provenance.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"

namespace decor::sim {

namespace {

bool open_for_write(const std::filesystem::path& path, std::ofstream& out) {
  out.open(path);
  if (!out.is_open()) {
    DECOR_LOG_ERROR("flight recorder: cannot write " << path.string());
    return false;
  }
  return true;
}

}  // namespace

bool write_flight_bundle(const std::string& dir, const FlightBundleInfo& info,
                         const Trace& trace, const Timeline* timeline) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    DECOR_LOG_ERROR("flight recorder: cannot create bundle dir " << dir << ": "
                                                                 << ec.message());
    return false;
  }
  const fs::path root(dir);

  {
    std::ofstream out;
    if (!open_for_write(root / "trace.jsonl", out)) return false;
    // Same formatter as the live stream, written in large blocks.
    std::string block;
    trace.for_each([&](const TraceSlot& s) {
      trace.append_json(block, s);
      block += '\n';
      if (block.size() >= (1u << 20)) {
        out << block;
        block.clear();
      }
    });
    out << block;
  }

  std::size_t timeline_written = 0;
  if (timeline != nullptr) {
    std::ofstream out;
    if (!open_for_write(root / "timeline.jsonl", out)) return false;
    out << "{\"schema\":\"decor.timeline.v1\"}\n";
    for (const auto& s : timeline->tail(info.timeline_tail)) {
      out << timeline_sample_json(s) << "\n";
      ++timeline_written;
    }
  }

  std::size_t field_lines = 0;
  if (!info.field_jsonl.empty()) {
    std::ofstream out;
    if (!open_for_write(root / "field.jsonl", out)) return false;
    out << info.field_jsonl;
    for (const char c : info.field_jsonl) {
      if (c == '\n') ++field_lines;
    }
  }

  std::size_t metrics_lines = 0;
  if (!info.metrics_jsonl.empty()) {
    std::ofstream out;
    if (!open_for_write(root / "metrics.jsonl", out)) return false;
    out << info.metrics_jsonl;
    for (const char c : info.metrics_jsonl) {
      if (c == '\n') ++metrics_lines;
    }
  }

  {
    std::ofstream out;
    if (!open_for_write(root / "metrics.json", out)) return false;
    out << common::metrics().to_json() << "\n";
  }

  {
    std::ofstream out;
    if (!open_for_write(root / "manifest.json", out)) return false;
    common::JsonWriter w(out);
    w.begin_object();
    w.key("schema");
    w.value("decor.flight.v1");
    w.key("reason");
    w.value(info.reason);
    w.key("sim_time");
    w.value(info.sim_time);
    w.key("scheme");
    w.value(info.scheme);
    w.key("detail");
    w.value(info.detail);
    w.key("trace_records");
    w.value(static_cast<std::uint64_t>(trace.records().size()));
    w.key("trace_total_recorded");
    w.value(trace.total_recorded());
    w.key("trace_dropped");
    w.value(trace.dropped());
    w.key("timeline_samples");
    w.value(static_cast<std::uint64_t>(timeline_written));
    // Schema header included; 0 means no field recorder was active.
    w.key("field_lines");
    w.value(static_cast<std::uint64_t>(field_lines));
    if (metrics_lines > 0) {
      // Schema header included; key absent when no periodic metrics
      // snapshotter was active (manifest layout stays stable for old
      // consumers).
      w.key("metrics_lines");
      w.value(static_cast<std::uint64_t>(metrics_lines));
    }
    if (!info.faults_json.empty()) {
      w.key("faults");
      w.raw_value(info.faults_json);
    }
    w.key("meta");
    common::write_provenance(w);
    w.end_object();
    out << "\n";
  }

  DECOR_LOG_WARN("flight recorder: wrote bundle to " << dir << " (reason: "
                                                     << info.reason << ")");
  return true;
}

bool prepare_flight_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    DECOR_LOG_ERROR("flight recorder: cannot create bundle dir " << dir << ": "
                                                                 << ec.message());
    return false;
  }
  const fs::path probe = fs::path(dir) / ".flight_probe";
  {
    std::ofstream out(probe);
    if (!out.is_open()) {
      DECOR_LOG_ERROR("flight recorder: bundle dir not writable: " << dir);
      return false;
    }
  }
  fs::remove(probe, ec);  // best-effort cleanup; the probe did its job
  return true;
}

}  // namespace decor::sim
