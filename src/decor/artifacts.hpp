// Schema-classified discovery of run-directory artifacts.
//
// Every consumer that interprets a finished run — `decor report html`,
// `decor watch` replay, `decor explain` — used to walk the directory
// itself and sniff each file's first line. This helper is the single
// copy of that logic: it discovers files in sorted relative-path order
// (directory iteration order is filesystem-dependent; every consumer's
// byte-determinism contract depends on the sort), classifies each by its
// schema header or record shape, and parses the lines once.
//
// Trace dumps, which dwarf every other artifact, are read in one piece
// into a typed TraceIndex. The small streams keep a parsed tree per line,
// with the raw line text alongside, so replay-style consumers (the
// dashboard ingests verbatim JSONL lines) and tree-style consumers (the
// report walks parsed values) share one loader.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "decor/trace_index.hpp"

namespace decor::core {

/// One artifact file, classified by its first line: a "schema" member
/// names the JSONL dialect; trace dumps (which carry no header) are
/// recognized by their seq/kind record shape; whole-file JSON documents
/// (manifest.json, metrics.json) are parsed in one piece.
struct Artifact {
  std::string rel;   ///< path relative to the scanned dir, generic form
  /// "field", "timeline", "audit", "metrics-stream" (decor.metrics.v1
  /// snapshots), "trace", "manifest", "metrics" (metrics.json document),
  /// or "other".
  std::string kind;
  common::JsonValue header;  ///< schema line, or the whole document
  std::string header_line;   ///< raw schema line text ("" when none)
  /// Parsed data lines, file order (every kind but "trace").
  std::vector<common::JsonValue> records;
  std::vector<std::string> lines;  ///< raw text of `records`, same order
  TraceIndex trace;                ///< the records of a "trace" artifact
  std::size_t malformed = 0;       ///< unparseable lines, skipped

  /// Data records, whichever form holds them.
  std::size_t record_count() const noexcept {
    return records.size() + trace.size();
  }
};

/// Artifacts that cannot contribute anything to a consumer: a file with
/// zero parsed records (sinks that opened but never flushed a line, or
/// files truncated down to nothing) or one that did not parse at all.
/// Counted warnings, per the report convention — never hard failures.
struct ArtifactWarning {
  std::string rel;
  std::string reason;
};

/// Loads every recognized artifact under `dir` (recursively, so flight
/// bundles nested in a run directory are included): *.jsonl files plus
/// manifest.json / metrics.json documents. Throws common::RequireError
/// when `dir` is not a readable directory (`context` prefixes the
/// message, e.g. "report"); unreadable or malformed lines are skipped
/// and counted per artifact.
std::vector<Artifact> load_run_artifacts(const std::string& dir,
                                         const std::string& context);

/// The counted warnings for a loaded artifact set (empty, truncated or
/// unparseable files).
std::vector<ArtifactWarning> collect_artifact_warnings(
    const std::vector<Artifact>& artifacts);

}  // namespace decor::core
