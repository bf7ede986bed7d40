#include "sim/trace_export.hpp"

#include <limits>
#include <map>
#include <set>

#include "common/json.hpp"

namespace decor::sim {

namespace {

/// Microseconds timestamp for the trace_event "ts" field.
std::string ts_us(Time at) { return common::format_double(at * 1e6); }

/// The shared prefix of every event in one message span: async events
/// correlate on (cat, id, name), and "id2.global" makes the id explicitly
/// cross-process so one exchange threads through several node tracks.
std::string span_head(const std::string& name, std::uint64_t trace_id,
                      char phase) {
  std::string out = "{\"name\":\"";
  out += common::json_escape(name);
  out += "\",\"cat\":\"msg\",\"ph\":\"";
  out += phase;
  out += "\",\"id2\":{\"global\":\"";
  out += std::to_string(trace_id);
  out += "\"}";
  return out;
}

void write_span_event(std::ostream& os, const std::string& name,
                      std::uint64_t trace_id, char phase, Time at,
                      std::uint32_t pid, const char* leg) {
  os << ",\n"
     << span_head(name, trace_id, phase) << ",\"ts\":" << ts_us(at)
     << ",\"pid\":" << pid << ",\"tid\":0,\"args\":{\"leg\":\"" << leg
     << "\",\"trace\":" << trace_id << "}}";
}

void write_instant(std::ostream& os, const std::string& name, Time at,
                   std::uint32_t pid) {
  os << ",\n{\"name\":\"" << common::json_escape(name)
     << "\",\"cat\":\"node\",\"ph\":\"i\",\"s\":\"p\",\"ts\":" << ts_us(at)
     << ",\"pid\":" << pid << ",\"tid\":0}";
}

}  // namespace

int parse_detail_kind(std::string_view detail) noexcept {
  if (!detail.starts_with("kind=")) return -1;
  std::size_t i = 5;
  while (i < detail.size() && (detail[i] == ' ' ||
                               (detail[i] >= '\t' && detail[i] <= '\r'))) {
    ++i;
  }
  const bool negative = i < detail.size() && detail[i] == '-';
  if (i < detail.size() && (detail[i] == '-' || detail[i] == '+')) ++i;
  // strtol semantics (what atoi forwards to): saturate, then narrow.
  constexpr long kMax = std::numeric_limits<long>::max();
  long v = 0;
  bool overflow = false;
  for (; i < detail.size() && detail[i] >= '0' && detail[i] <= '9'; ++i) {
    const int d = detail[i] - '0';
    overflow = overflow || v > (kMax - d) / 10;
    if (!overflow) v = v * 10 + d;
  }
  if (overflow) v = negative ? std::numeric_limits<long>::min() : kMax;
  else if (negative) v = -v;
  return static_cast<int>(v);
}

void write_chrome_trace(const std::vector<TraceRecord>& records,
                        std::ostream& os, const MsgKindNamer& namer,
                        int ack_kind) {
  // Group the message-lifecycle records by causality id (insertion order
  // preserved — the input is chronological, so the first tx of a group is
  // the originating send).
  std::map<std::uint64_t, std::vector<const TraceRecord*>> spans;
  std::set<std::uint32_t> nodes;
  for (const auto& r : records) {
    nodes.insert(r.node);
    const bool msg_record = r.kind == TraceKind::kTx ||
                            r.kind == TraceKind::kRx ||
                            r.kind == TraceKind::kDrop;
    if (msg_record && r.trace_id != 0) spans[r.trace_id].push_back(&r);
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"name\":\"decor\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"decor simulation\"}}";
  for (std::uint32_t n : nodes) {
    os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << n
       << ",\"tid\":0,\"args\":{\"name\":\"node " << n << "\"}}";
  }

  for (const auto& [trace_id, group] : spans) {
    // The origin is the first transmitter; a group with no tx at all
    // (ring wraparound ate the send) is anchored at its first record.
    const TraceRecord* first_tx = nullptr;
    for (const auto* r : group) {
      if (r->kind == TraceKind::kTx) {
        first_tx = r;
        break;
      }
    }
    const TraceRecord* anchor = first_tx ? first_tx : group.front();
    const std::uint32_t origin = anchor->node;
    const int kind = parse_detail_kind(anchor->detail);
    std::string name =
        namer && kind >= 0 ? namer(kind) : "kind-" + std::to_string(kind);

    write_span_event(os, name, trace_id, 'b', anchor->at, origin, "send");
    for (const auto* r : group) {
      if (r == anchor) continue;
      const int rk = parse_detail_kind(r->detail);
      const char* leg = "rx";
      switch (r->kind) {
        case TraceKind::kTx:
          if (rk == ack_kind) {
            leg = "ack";
          } else {
            leg = r->node == origin ? "retransmit" : "forward";
          }
          break;
        case TraceKind::kRx:
          leg = rk == ack_kind ? "ack-rx" : "rx";
          break;
        case TraceKind::kDrop:
          leg = "drop";
          break;
        default:
          break;
      }
      write_span_event(os, name, trace_id, 'n', r->at, r->node, leg);
    }
    write_span_event(os, name, trace_id, 'e', group.back()->at, origin,
                     "end");
  }

  for (const auto& r : records) {
    switch (r.kind) {
      case TraceKind::kSpawn:
        write_instant(os, "spawn", r.at, r.node);
        break;
      case TraceKind::kKill:
        write_instant(os, "kill", r.at, r.node);
        break;
      case TraceKind::kReboot:
        write_instant(os, "reboot", r.at, r.node);
        break;
      case TraceKind::kProtocol:
        write_instant(os, r.detail.empty() ? "protocol" : r.detail, r.at,
                      r.node);
        break;
      default:
        break;
    }
  }
  os << "\n]}\n";
}

}  // namespace decor::sim
