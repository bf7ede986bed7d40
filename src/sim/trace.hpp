// Structured event tracing for the simulator.
//
// Tests and examples assert on traces (who detected which failure, when a
// leader rotated) rather than scraping logs; benches leave tracing off.
// Two memory regimes: the default unbounded vector (tests want every
// record), and a bounded ring buffer (`set_capacity`) that keeps only the
// most recent records — long protocol runs stay at a fixed footprint.
// Independently of the in-memory buffer, `open_jsonl` streams every
// record to disk as one JSON object per line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"
#include "sim/event_queue.hpp"

namespace decor::sim {

enum class TraceKind : int {
  kSpawn,
  kKill,
  kTx,
  kRx,
  kDrop,
  kTimer,
  kProtocol,  // free-form protocol milestone
  kReboot,    // dead node restarted in place with fresh state
};

/// Stable lowercase name of a kind ("spawn", "tx", ...), used by the
/// JSONL sink and anything else that serializes records.
const char* trace_kind_name(TraceKind kind) noexcept;

/// Appends one record as a trace JSONL line (no trailing newline) to
/// `out`: {"seq":1,"t":...,"kind":"tx","node":3,"trace":7,"detail":"..."}.
/// Shared by the live sink and the flight recorder.
void append_trace_record_json(std::string& out, std::uint64_t seq, Time at,
                              TraceKind kind, std::uint32_t node,
                              std::uint64_t trace_id, std::string_view detail);

struct TraceRecord {
  Time at = 0.0;
  TraceKind kind = TraceKind::kProtocol;
  std::uint32_t node = 0;
  std::string detail;
  /// Causality id of the message this record belongs to (0 = none).
  std::uint64_t trace_id = 0;
  /// Per-run monotonically increasing record number (1-based), assigned
  /// on record(). Survives ring-buffer wraparound, so a JSONL dump or the
  /// ring contents are order-verifiable after the fact.
  std::uint64_t seq = 0;
};

/// In-memory trace with optional recording (disabled by default; recording
/// every rx in a large run would dominate memory).
class Trace {
 public:
  void enable(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Bounds the in-memory buffer to the `cap` most recent records
  /// (0 restores the unbounded default). Clears the current buffer.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Records accepted since construction/clear(), including any that have
  /// since been overwritten in ring mode.
  std::uint64_t total_recorded() const noexcept { return total_; }
  /// Records overwritten by the ring (0 when unbounded or not yet full).
  std::uint64_t dropped() const noexcept {
    return total_ - static_cast<std::uint64_t>(records_.size());
  }

  /// Publishes records through `bus` instead of the internally-owned
  /// fallback; must precede open_jsonl. Records are only serialized when
  /// some sink on the bus wants the trace stream, so the hot path stays
  /// cheap for purely in-memory tracing.
  void attach_bus(common::TelemetryBus* bus);

  /// Streams every subsequent record to `path` as JSON lines
  /// ({"seq":1,"t":...,"kind":"tx","node":3,"trace":7,"detail":"..."})
  /// via a bus file sink (the trace stream has no schema header line);
  /// on failure to open, logs the error via common::log and returns false
  /// (callers that cannot proceed without the sink should treat false as
  /// fatal). The sink sees records regardless of the ring capacity, but
  /// only while recording is enabled.
  bool open_jsonl(const std::string& path);
  void close_jsonl();

  void record(Time at, TraceKind kind, std::uint32_t node,
              std::string detail, std::uint64_t trace_id = 0);

  /// Raw buffer. In ring mode after a wrap the storage order is rotated;
  /// use chronological() (or filter/grep, which compensate) when order
  /// matters.
  const std::vector<TraceRecord>& records() const noexcept { return records_; }
  /// Buffered records, oldest first.
  std::vector<TraceRecord> chronological() const;
  void clear() noexcept;

  /// Records matching a kind, oldest first.
  std::vector<TraceRecord> filter(TraceKind kind) const;

  /// Records whose detail contains `needle`, oldest first.
  std::vector<TraceRecord> grep(const std::string& needle) const;

 private:
  /// Index into records_ of the i-th oldest buffered record.
  std::size_t slot(std::size_t i) const noexcept;
  common::TelemetryBus& ensure_bus();

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // ring mode: next slot to overwrite once full
  std::uint64_t total_ = 0;
  std::vector<TraceRecord> records_;
  common::TelemetryBus* bus_ = nullptr;
  std::unique_ptr<common::TelemetryBus> owned_bus_;
  common::TelemetryBus::SinkId file_sink_ = 0;
  std::string line_;  // reused serialization buffer for the bus
};

}  // namespace decor::sim
