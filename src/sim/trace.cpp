#include "sim/trace.hpp"

#include <algorithm>
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

// Every record line is a fixed prefix, the escaped detail and a fixed
// suffix. The prefix and a shaped detail have bounded lengths, so both
// are written with std::to_chars into stack buffers of these sizes.
constexpr std::size_t kPrefixMax = 128 + common::kMaxDoubleChars;
constexpr std::size_t kShapeMax = 48;

char* put(char* p, std::string_view s) noexcept {
  return std::copy(s.begin(), s.end(), p);
}

template <class Int>
char* put_int(char* p, Int v) noexcept {
  return std::to_chars(p, p + 20, v).ptr;
}

/// {"seq":1,"t":0.5,"kind":"tx","node":3,"trace":7,"detail":"
char* write_prefix(char* p, std::uint64_t seq, Time at, TraceKind kind,
                   std::uint32_t node, std::uint64_t trace_id) noexcept {
  p = put(p, "{\"seq\":");
  p = put_int(p, seq);
  p = put(p, ",\"t\":");
  p = common::write_double(p, at);
  p = put(p, ",\"kind\":\"");
  p = put(p, trace_kind_name(kind));
  p = put(p, "\",\"node\":");
  p = put_int(p, node);
  p = put(p, ",\"trace\":");
  p = put_int(p, trace_id);
  return put(p, ",\"detail\":\"");
}

/// The detail of a non-text shape; needs kShapeMax bytes. Its characters
/// never need JSON escaping.
char* write_shape(char* p, TraceShape shape, int msg_kind,
                  std::uint32_t from) noexcept {
  switch (shape) {
    case TraceShape::kNone:
    case TraceShape::kText:
      return p;
    case TraceShape::kCrcKindFrom:
      p = put(p, "crc ");
      [[fallthrough]];
    case TraceShape::kKind:
    case TraceShape::kKindFrom:
      p = put(p, "kind=");
      p = put_int(p, msg_kind);
      if (shape == TraceShape::kKind) return p;
      p = put(p, " from=");
      return put_int(p, from);
  }
  return p;
}

constexpr std::string_view kSuffix = "\"}";
constexpr std::size_t kShapedLineMax = kPrefixMax + kShapeMax + 2;

/// The whole line of a record with a non-text shape; needs
/// kShapedLineMax bytes.
char* write_shaped_line(char* p, const TraceSlot& s) noexcept {
  p = write_prefix(p, s.seq, s.at, s.kind, s.node, s.trace_id);
  return put(write_shape(p, s.shape, s.msg_kind, s.from), kSuffix);
}

}  // namespace

void append_trace_record_json(std::string& out, std::uint64_t seq, Time at,
                              TraceKind kind, std::uint32_t node,
                              std::uint64_t trace_id, std::string_view detail) {
  char buf[kPrefixMax];
  out.append(buf, write_prefix(buf, seq, at, kind, node, trace_id));
  common::append_json_escaped(out, detail);
  out += kSuffix;
}

void Trace::push(const TraceSlot& s) {
  if (capacity_ == 0 || records_.size() < capacity_) {
    // The ring reserves its full capacity on first use, not at
    // set_capacity, so configuring a trace allocates nothing.
    if (capacity_ > 0 && records_.empty()) records_.reserve(capacity_);
    records_.push_back(s);
    return;
  }
  // Ring mode, buffer full: overwrite the oldest record in place.
  records_[head_] = s;
  head_ = (head_ + 1) % capacity_;
}

void Trace::record(Time at, TraceKind kind, std::uint32_t node,
                   std::string_view text, std::uint64_t trace_id) {
  if (!enabled_) return;
  TraceSlot s{at, ++total_, trace_id, node, kind};
  if (streaming()) {
    line_.clear();
    append_trace_record_json(line_, s.seq, at, kind, node, trace_id, text);
    bus_->publish(common::TelemetryStream::kTrace, line_);
  }
  if (!retain_) return;
  if (!text.empty()) {
    auto it = text_ids_.find(text);
    if (it == text_ids_.end()) {
      it = text_ids_
               .emplace(std::string(text),
                        static_cast<std::uint32_t>(texts_.size()))
               .first;
      texts_.push_back(it->first);
    }
    s.shape = TraceShape::kText;
    s.text = it->second;
  }
  push(s);
}

void Trace::record_message(Time at, TraceKind kind, std::uint32_t node,
                           TraceShape shape, int msg_kind, std::uint32_t from,
                           std::uint64_t trace_id) {
  if (!enabled_) return;
  const TraceSlot s{at, ++total_, trace_id, node, kind, msg_kind, from, 0,
                    shape};
  if (streaming()) {
    char line[kShapedLineMax];
    bus_->publish(common::TelemetryStream::kTrace,
                  std::string_view(line, static_cast<std::size_t>(
                                             write_shaped_line(line, s) -
                                             line)));
  }
  if (retain_) push(s);
}

std::size_t Trace::slot(std::size_t i) const noexcept {
  // head_ is only nonzero after a wrap, in which case records_[head_] is
  // the oldest buffered record.
  return (head_ + i) % records_.size();
}

std::string Trace::detail(const TraceSlot& s) const {
  if (s.shape == TraceShape::kText) return std::string(texts_[s.text]);
  char buf[kShapeMax];
  return std::string(buf, write_shape(buf, s.shape, s.msg_kind, s.from));
}

void Trace::append_json(std::string& out, const TraceSlot& s) const {
  if (s.shape == TraceShape::kText) {
    append_trace_record_json(out, s.seq, s.at, s.kind, s.node, s.trace_id,
                             texts_[s.text]);
    return;
  }
  char buf[kShapedLineMax];
  out.append(buf, write_shaped_line(buf, s));
}

TraceRecord Trace::render(const TraceSlot& s) const {
  return TraceRecord{s.at, s.kind, s.node, detail(s), s.trace_id, s.seq};
}

std::vector<TraceRecord> Trace::chronological() const {
  std::vector<TraceRecord> out;
  out.reserve(records_.size());
  for_each([&](const TraceSlot& s) { out.push_back(render(s)); });
  return out;
}

void Trace::clear() noexcept {
  records_.clear();
  text_ids_.clear();
  texts_.clear();
  head_ = 0;
  total_ = 0;
}

std::vector<TraceRecord> Trace::filter(TraceKind kind) const {
  std::vector<TraceRecord> out;
  for_each([&](const TraceSlot& s) {
    if (s.kind == kind) out.push_back(render(s));
  });
  return out;
}

std::vector<TraceRecord> Trace::grep(const std::string& needle) const {
  std::vector<TraceRecord> out;
  for_each([&](const TraceSlot& s) {
    TraceRecord r = render(s);
    if (r.detail.find(needle) != std::string::npos) out.push_back(std::move(r));
  });
  return out;
}

}  // namespace decor::sim
