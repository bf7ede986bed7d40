// Typed, read-once index over a trace JSONL dump.
//
// A traced run writes one JSON object per message event; a default-sized
// run easily writes a few hundred thousand of them. Every consumer
// (`decor explain`, the HTML report, `decor trace report`) reads the same
// six fields, so the dump is parsed once into compact fixed-size records
// instead of a JsonValue tree per line. The detail text stays in one
// pooled buffer (the file contents themselves for canonical lines) and
// records point into it.
//
// Decoding has two paths that agree by construction. A fast path accepts
// only the exact shape sim::append_trace_record_json writes — keys in writer
// order, no whitespace, unescaped strings, plain integers — and decodes
// numbers with std::from_chars over the same characters parse_json would
// hand it. Every other line goes through common::parse_json and takes the
// same defaults the DOM accessors apply (absent or non-number fields read
// 0, a non-string detail reads ""). So a record, or a malformed count,
// never depends on which path decoded it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace decor::core {

/// The record kinds trace consumers tell apart. kNone marks a line with
/// no string "kind" member (a foreign object, or not an object at all);
/// kOther is any other kind string (spawn, kill, timer, reboot, ...).
enum class TraceRecordKind : std::uint8_t { kNone, kOther, kTx, kRx, kDrop, kProtocol };

/// One parsed trace line (48 bytes).
struct TraceEntry {
  std::uint64_t seq = 0;
  double t = 0.0;
  std::uint64_t trace = 0;  ///< causality id (0 = none)
  std::uint64_t detail_off = 0;  ///< into the index's pooled buffer
  std::uint32_t detail_len = 0;
  std::uint32_t node = 0;
  TraceRecordKind kind = TraceRecordKind::kNone;
};

class TraceIndex {
 public:
  TraceIndex() = default;
  /// Indexes every non-empty line of `text` (a trace JSONL dump) and
  /// keeps the text as the detail pool. Lines that do not parse as JSON
  /// (truncated tails, garbage, lines over 4 GiB) are counted in
  /// malformed(), never fatal.
  explicit TraceIndex(std::string text);

  /// Parsed records, file order.
  const std::vector<TraceEntry>& records() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  std::size_t malformed() const noexcept { return malformed_; }

  /// The decoded detail string of `r` (valid while the index lives).
  std::string_view detail(const TraceEntry& r) const noexcept {
    return std::string_view(pool_.data() + r.detail_off, r.detail_len);
  }

 private:
  std::string pool_;
  std::vector<TraceEntry> records_;
  std::size_t malformed_ = 0;
};

/// The `from=N` sender in an rx/drop detail string, or -1 when absent.
std::int64_t parse_detail_from(std::string_view detail);

}  // namespace decor::core
