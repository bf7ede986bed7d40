// Streaming telemetry bus: one publish/fan-out layer under every
// artifact writer.
//
// Before this layer each observability producer (sim::Timeline,
// coverage::FieldRecorder, sim::AuditLog, the trace JSONL dump, metrics
// snapshots) owned its own std::ofstream, so a run's telemetry could only
// ever land in files. The bus decouples *what* a producer emits (one
// serialized JSON line per event, exactly the bytes the old sinks wrote)
// from *where* it goes: any number of sinks attach to the bus, each
// declaring which streams it wants, and every published line fans out to
// all interested sinks. The original file sinks are now JsonlFileSink
// instances riding the bus — their byte output is identical to the
// pre-bus ofstreams — and the same events can simultaneously feed a live
// length-prefixed stream for `decor watch`, an OTLP exporter, or a
// future `decor serve` scrape endpoint.
//
// Contracts:
//  - Events are serialized JSON objects without a trailing newline; the
//    producer serializes once, the bus never re-renders.
//  - Header lines (the decor.*.v1 schema line a JSONL artifact starts
//    with) are remembered per stream and replayed, in publication order,
//    to sinks that attach later — a late sink still writes a well-formed
//    artifact.
//  - Delivery is synchronous and in publication order; sinks that can
//    block (sockets) must buffer internally and drop-with-count rather
//    than stall the simulation (see FrameStreamSink).
//  - The bus is single-threaded like the simulator that feeds it.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace decor::common {

/// The event streams the repo's producers publish. A sink filters on
/// these rather than on schema strings so filtering is a branch, not a
/// string compare.
enum class TelemetryStream : int {
  kTimeline = 0,  // decor.timeline.v1 convergence samples
  kField,         // decor.field.v1 k-deficit snapshots
  kAudit,         // decor.audit.v1 placement decisions
  kTrace,         // trace JSONL records (no schema header)
  kMetrics,       // decor.metrics.v1 registry snapshots
};
inline constexpr std::size_t kNumTelemetryStreams = 5;

/// Stable lowercase stream name ("timeline", "field", ...), used by the
/// framed live stream and anything else that labels events on the wire.
const char* telemetry_stream_name(TelemetryStream s) noexcept;

struct TelemetryEvent {
  TelemetryStream stream = TelemetryStream::kTimeline;
  /// Per-stream 1-based publication number; header lines carry 0.
  std::uint64_t seq = 0;
  /// True for a schema header line (replayed to late sinks).
  bool header = false;
  /// Serialized JSON object, no trailing newline. Only valid for the
  /// duration of the on_event call.
  std::string_view line;
};

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  /// Stream filter; the bus only delivers events this returns true for
  /// (headers included).
  virtual bool wants(TelemetryStream s) const noexcept {
    (void)s;
    return true;
  }
  virtual void on_event(const TelemetryEvent& e) = 0;
  /// Push any buffered state out (end of run).
  virtual void flush() {}
  /// Push buffered bytes out mid-run (flight dump, error path) without
  /// ending the stream: unlike flush(), never triggers an export.
  virtual void checkpoint() {}
  /// Non-empty (one line naming the destination) once the sink has lost
  /// output it was given.
  virtual std::string failure() const { return {}; }
};

class TelemetryBus {
 public:
  using SinkId = std::uint64_t;

  /// Attaches a sink; any headers already published on streams the sink
  /// wants are replayed immediately, in original publication order.
  /// Returns an id for remove_sink.
  SinkId add_sink(std::unique_ptr<TelemetrySink> sink);

  /// Detaches and returns the sink (nullptr for an unknown id). The sink
  /// is flushed first.
  std::unique_ptr<TelemetrySink> remove_sink(SinkId id);

  /// Publishes one serialized line to every interested sink. Header
  /// lines are additionally remembered for late-sink replay.
  void publish(TelemetryStream s, std::string_view line, bool header = false);

  /// True when at least one attached sink wants `s` — producers use this
  /// to skip serialization entirely on silent streams.
  bool has_sink_for(TelemetryStream s) const noexcept;

  void flush();
  void checkpoint();
  /// The first failure() of an attached sink, or of one removed since;
  /// empty while every sink's output is intact.
  std::string failure() const;

  std::size_t num_sinks() const noexcept { return sinks_.size(); }
  std::uint64_t events_published() const noexcept { return published_; }

 private:
  struct Entry {
    SinkId id;
    std::unique_ptr<TelemetrySink> sink;
  };
  std::vector<Entry> sinks_;
  SinkId next_id_ = 1;
  std::array<std::uint64_t, kNumTelemetryStreams> seq_{};
  /// Headers in publication order (stream, line) for late-sink replay.
  std::vector<std::pair<TelemetryStream, std::string>> headers_;
  std::uint64_t published_ = 0;
  std::string removed_failure_;  // first failure of a removed sink
};

/// The classic artifact file: writes every line of one stream, newline
/// terminated, in delivery order — byte-identical to the pre-bus
/// per-producer ofstreams. Lines collect in a buffer of about
/// kBlockBytes that is written to the file in one call when full, on
/// flush()/checkpoint() and on destruction. A failed write is kept as
/// failure(); later output to the sink is discarded. A failure nobody
/// asked for by destruction time is logged then.
class JsonlFileSink : public TelemetrySink {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  JsonlFileSink(const std::string& path, TelemetryStream stream);
  ~JsonlFileSink() override;
  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  /// False when the file could not be opened (the caller should not
  /// attach a dead sink).
  bool ok() const noexcept { return file_ != nullptr; }

  bool wants(TelemetryStream s) const noexcept override {
    return s == stream_;
  }
  void on_event(const TelemetryEvent& e) override;
  void flush() override { write_buffer(); }
  void checkpoint() override { write_buffer(); }
  std::string failure() const override;

 private:
  void write_buffer();

  TelemetryStream stream_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  int error_ = 0;  // errno of the first failed write; 0 while intact
  mutable bool failure_taken_ = false;  // failure() handed it to a caller
};

/// Live length-prefixed stream for `decor watch` and other tailers.
///
/// Wire format, one frame per event:
///   "DTLM <stream> <seq> <len>\n" followed by exactly <len> payload
///   bytes (the JSON line) and a terminating "\n".
/// The ASCII header makes frames self-delimiting and resyncable: a
/// reader skips lines that do not start with "DTLM " (interleaved human
/// output) and trusts <len> for the payload, so payloads may contain
/// anything.
///
/// Targets: "-" (stdout, blocking — the watcher is expected to consume
/// continuously), a file path (blocking), or "tcp:HOST:PORT" (connects
/// once; the socket is non-blocking and writes go through a bounded
/// in-memory buffer — when the peer stalls past `max_buffered` bytes,
/// whole frames are dropped and counted rather than stalling the
/// simulation).
class FrameStreamSink : public TelemetrySink {
 public:
  explicit FrameStreamSink(const std::string& target,
                           std::size_t max_buffered = 4 << 20);
  ~FrameStreamSink() override;

  /// False when the target could not be opened/connected.
  bool ok() const noexcept { return ok_; }

  /// Restricts the sink to a stream subset (default: everything except
  /// trace, which is too chatty for a live dashboard).
  void set_streams(std::initializer_list<TelemetryStream> streams);

  bool wants(TelemetryStream s) const noexcept override {
    return streams_[static_cast<std::size_t>(s)];
  }
  void on_event(const TelemetryEvent& e) override;
  void flush() override;

  std::uint64_t frames_written() const noexcept { return frames_; }
  std::uint64_t frames_dropped() const noexcept { return dropped_; }

 private:
  void write_bytes(const char* data, std::size_t n);
  void drain_buffer();

  std::array<bool, kNumTelemetryStreams> streams_{};
  bool ok_ = false;
  bool nonblocking_ = false;  // tcp targets: drop instead of stall
  int fd_ = -1;               // -1 = use file stream below
  bool own_fd_ = false;
  std::ofstream file_;
  std::string buffer_;  // pending bytes for non-blocking targets
  std::size_t max_buffered_;
  std::uint64_t frames_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace decor::common
