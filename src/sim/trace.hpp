// Structured event tracing for the simulator.
//
// Tests and examples assert on traces (who detected which failure, when a
// leader rotated) rather than scraping logs; benches leave tracing off.
// Two memory regimes: the default unbounded vector (tests want every
// record), and a bounded ring buffer (`set_capacity`) that keeps only the
// most recent records — long protocol runs stay at a fixed footprint.
// Independently of the in-memory buffer, `open_jsonl` streams every
// record to disk as one JSON object per line; with `retain(false)` the
// trace only streams and buffers nothing.
//
// Records are fixed-size and allocation-free: a radio record stores the
// message kind and sender its detail names, not a rendered string, and
// free text (protocol milestones, fault notes) is interned once in a
// per-Trace text pool. The detail string is rendered only where it is
// read — the JSONL line a stream sink receives, and the TraceRecord
// copies chronological()/filter()/grep() return.
#pragma once

#include <cstdint>
#include <map>
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

/// How a buffered record's detail string is rendered.
enum class TraceShape : std::uint8_t {
  kNone,         // ""
  kKind,         // "kind=K"
  kKindFrom,     // "kind=K from=S"
  kCrcKindFrom,  // "crc kind=K from=S"
  kText,         // free text from the trace's text pool
};

/// Appends one record as a trace JSONL line (no trailing newline) to
/// `out`: {"seq":1,"t":...,"kind":"tx","node":3,"trace":7,"detail":"..."}.
void append_trace_record_json(std::string& out, std::uint64_t seq, Time at,
                              TraceKind kind, std::uint32_t node,
                              std::uint64_t trace_id, std::string_view detail);

/// One buffered record: fixed size, owns no heap memory.
struct TraceSlot {
  Time at = 0.0;
  /// Per-run monotonically increasing record number (1-based), assigned
  /// on record(). Survives ring-buffer wraparound, so a JSONL dump or the
  /// ring contents are order-verifiable after the fact.
  std::uint64_t seq = 0;
  /// Causality id of the message this record belongs to (0 = none).
  std::uint64_t trace_id = 0;
  std::uint32_t node = 0;
  TraceKind kind = TraceKind::kProtocol;
  int msg_kind = 0;        // kKind, kKindFrom, kCrcKindFrom
  std::uint32_t from = 0;  // kKindFrom, kCrcKindFrom
  std::uint32_t text = 0;  // text-pool index (kText)
  TraceShape shape = TraceShape::kNone;
};

/// A buffered record with its detail rendered, as the readers see it.
struct TraceRecord {
  Time at = 0.0;
  TraceKind kind = TraceKind::kProtocol;
  std::uint32_t node = 0;
  std::string detail;
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;
};

/// In-memory trace with optional recording (disabled by default; recording
/// every rx in a large run would dominate memory).
class Trace {
 public:
  void enable(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Whether recorded records are kept in memory (default on). Off, the
  /// trace only streams to its sinks: the buffer stays empty while
  /// total_recorded() still counts every record.
  void retain(bool on) noexcept { retain_ = on; }
  bool retaining() const noexcept { return retain_; }

  /// Bounds the in-memory buffer to the `cap` most recent records
  /// (0 restores the unbounded default). Clears the current buffer.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Records accepted since construction/clear(), including any that have
  /// since been overwritten in ring mode or were never buffered.
  std::uint64_t total_recorded() const noexcept { return total_; }
  /// Accepted records no longer (or never) buffered.
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

  /// Records a free-text detail (empty for none). Distinct texts are
  /// interned, so the pool grows with the number of different texts,
  /// not with the number of records.
  void record(Time at, TraceKind kind, std::uint32_t node,
              std::string_view text, std::uint64_t trace_id = 0);
  /// Records a message event whose detail names the message kind and,
  /// by `shape`, its sender; builds no string.
  void record_message(Time at, TraceKind kind, std::uint32_t node,
                      TraceShape shape, int msg_kind, std::uint32_t from,
                      std::uint64_t trace_id);

  /// Raw buffer. In ring mode after a wrap the storage order is rotated;
  /// use chronological() (or filter/grep, which compensate) when order
  /// matters.
  const std::vector<TraceSlot>& records() const noexcept { return records_; }
  /// Buffered records, oldest first.
  std::vector<TraceRecord> chronological() const;
  void clear() noexcept;

  /// Records matching a kind, oldest first.
  std::vector<TraceRecord> filter(TraceKind kind) const;

  /// Records whose detail contains `needle`, oldest first.
  std::vector<TraceRecord> grep(const std::string& needle) const;

  /// The detail string of a buffered record.
  std::string detail(const TraceSlot& s) const;
  /// Appends the JSONL line of a buffered record (no trailing newline),
  /// byte-identical to the line the stream sink received for it.
  void append_json(std::string& out, const TraceSlot& s) const;

  /// Calls `f(slot)` for every buffered record, oldest first.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < records_.size(); ++i) f(records_[slot(i)]);
  }

 private:
  /// Index into records_ of the i-th oldest buffered record.
  std::size_t slot(std::size_t i) const noexcept;
  common::TelemetryBus& ensure_bus();
  bool streaming() const noexcept {
    return bus_ && bus_->has_sink_for(common::TelemetryStream::kTrace);
  }
  void push(const TraceSlot& s);
  TraceRecord render(const TraceSlot& s) const;

  bool enabled_ = false;
  bool retain_ = true;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // ring mode: next slot to overwrite once full
  std::uint64_t total_ = 0;
  std::vector<TraceSlot> records_;
  /// Interned free texts: ids index texts_, whose views point at the
  /// (node-stable) keys of text_ids_.
  std::map<std::string, std::uint32_t, std::less<>> text_ids_;
  std::vector<std::string_view> texts_;
  common::TelemetryBus* bus_ = nullptr;
  std::unique_ptr<common::TelemetryBus> owned_bus_;
  common::TelemetryBus::SinkId file_sink_ = 0;
  std::string line_;  // reused serialization buffer for free-text lines
};

}  // namespace decor::sim
