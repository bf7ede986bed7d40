#include "sim/trace.hpp"

#include <charconv>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/require.hpp"

namespace decor::sim {

const char* trace_kind_name(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kSpawn:
      return "spawn";
    case TraceKind::kKill:
      return "kill";
    case TraceKind::kTx:
      return "tx";
    case TraceKind::kRx:
      return "rx";
    case TraceKind::kDrop:
      return "drop";
    case TraceKind::kTimer:
      return "timer";
    case TraceKind::kProtocol:
      return "protocol";
    case TraceKind::kReboot:
      return "reboot";
  }
  return "unknown";
}

void Trace::set_capacity(std::size_t cap) {
  capacity_ = cap;
  records_.clear();
  records_.shrink_to_fit();
  if (capacity_ > 0) records_.reserve(capacity_);
  head_ = 0;
  total_ = 0;
}

common::TelemetryBus& Trace::ensure_bus() {
  if (!bus_) {
    owned_bus_ = std::make_unique<common::TelemetryBus>();
    bus_ = owned_bus_.get();
  }
  return *bus_;
}

void Trace::attach_bus(common::TelemetryBus* bus) {
  DECOR_REQUIRE_MSG(bus != nullptr, "trace: null bus");
  DECOR_REQUIRE_MSG(!owned_bus_ && file_sink_ == 0,
                    "trace: attach_bus must precede open_jsonl");
  bus_ = bus;
}

bool Trace::open_jsonl(const std::string& path) {
  auto sink = std::make_unique<common::JsonlFileSink>(
      path, common::TelemetryStream::kTrace);
  if (!sink->ok()) {
    DECOR_LOG_ERROR("cannot open trace JSONL sink: " << path);
    return false;
  }
  file_sink_ = ensure_bus().add_sink(std::move(sink));
  return true;
}

void Trace::close_jsonl() {
  if (file_sink_ != 0 && bus_) bus_->remove_sink(file_sink_);
  file_sink_ = 0;
}

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

void append_trace_record_json(std::string& out, std::uint64_t seq, Time at,
                              TraceKind kind, std::uint32_t node,
                              std::uint64_t trace_id, std::string_view detail) {
  out += "{\"seq\":";
  append_uint(out, seq);
  out += ",\"t\":";
  common::append_double(out, at);
  out += ",\"kind\":\"";
  out += trace_kind_name(kind);
  out += "\",\"node\":";
  append_uint(out, node);
  out += ",\"trace\":";
  append_uint(out, trace_id);
  out += ",\"detail\":\"";
  common::append_json_escaped(out, detail);
  out += "\"}";
}

void Trace::record(Time at, TraceKind kind, std::uint32_t node,
                   std::string detail, std::uint64_t trace_id) {
  if (!enabled_) return;
  const std::uint64_t seq = ++total_;
  if (bus_ && bus_->has_sink_for(common::TelemetryStream::kTrace)) {
    line_.clear();
    append_trace_record_json(line_, seq, at, kind, node, trace_id, detail);
    bus_->publish(common::TelemetryStream::kTrace, line_);
  }
  if (capacity_ == 0 || records_.size() < capacity_) {
    records_.push_back(
        TraceRecord{at, kind, node, std::move(detail), trace_id, seq});
    return;
  }
  // Ring mode, buffer full: overwrite the oldest record in place.
  records_[head_] =
      TraceRecord{at, kind, node, std::move(detail), trace_id, seq};
  head_ = (head_ + 1) % capacity_;
}

std::size_t Trace::slot(std::size_t i) const noexcept {
  // head_ is only nonzero after a wrap, in which case records_[head_] is
  // the oldest buffered record.
  return (head_ + i) % records_.size();
}

std::vector<TraceRecord> Trace::chronological() const {
  std::vector<TraceRecord> out;
  out.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out.push_back(records_[slot(i)]);
  }
  return out;
}

void Trace::clear() noexcept {
  records_.clear();
  head_ = 0;
  total_ = 0;
}

std::vector<TraceRecord> Trace::filter(TraceKind kind) const {
  std::vector<TraceRecord> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[slot(i)];
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

std::vector<TraceRecord> Trace::grep(const std::string& needle) const {
  std::vector<TraceRecord> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[slot(i)];
    if (r.detail.find(needle) != std::string::npos) out.push_back(r);
  }
  return out;
}

}  // namespace decor::sim
