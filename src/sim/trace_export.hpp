// Chrome trace_event export of a simulator trace.
//
// Renders buffered TraceRecords as a Chrome/Perfetto-loadable JSON
// document (chrome://tracing "trace event format", the JSON flavour
// Perfetto's UI opens directly): one process track per node, one async
// span per causality id covering the whole message lifecycle
// (send -> retransmit* -> rx -> ack), and instant events for spawns,
// kills and protocol milestones. Each event is written on its own line so
// downstream tooling (decor trace report) can consume the file with a
// line-oriented reader instead of a full JSON parser.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace.hpp"

namespace decor::sim {

/// Maps a wire message kind (the integer in "kind=N" details) to a
/// human-readable name. Null falls back to "kind-N". The simulator core
/// is protocol-agnostic, so the protocol layer supplies the names.
using MsgKindNamer = std::function<std::string(int)>;

/// Writes `records` (chronological order expected — Trace::chronological)
/// as a trace_event JSON document. `ack_kind` identifies the link-layer
/// acknowledgement kind so return legs are labelled "ack"; pass -1 if the
/// run has no ARQ layer.
void write_chrome_trace(const std::vector<TraceRecord>& records,
                        std::ostream& os, const MsgKindNamer& namer = {},
                        int ack_kind = -1);

/// Parses the "kind=N" prefix convention of tx/rx/drop details; returns
/// -1 when absent. The digits read like std::atoi: leading whitespace and
/// a sign are accepted, and parsing stops at the first non-digit.
int parse_detail_kind(std::string_view detail) noexcept;

}  // namespace decor::sim
