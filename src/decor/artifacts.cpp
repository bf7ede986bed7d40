#include "decor/artifacts.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "common/require.hpp"

namespace decor::core {

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::string text;
  if (!f) return text;
  f.seekg(0, std::ios::end);
  const auto size = f.tellg();
  f.seekg(0, std::ios::beg);
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    f.read(text.data(), size);
    text.resize(static_cast<std::size_t>(f.gcount()));
  }
  return text;
}

Artifact load_jsonl(const fs::path& path, const std::string& rel) {
  Artifact a;
  a.rel = rel;
  a.kind = "other";
  std::string text = read_file(path);
  const std::string_view view(text);
  bool first = true;
  for (std::size_t pos = 0; pos < view.size();) {
    std::size_t nl = view.find('\n', pos);
    if (nl == std::string_view::npos) nl = view.size();
    const std::string_view line = view.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    auto parsed = common::parse_json(line);
    if (!parsed) {
      ++a.malformed;
      continue;
    }
    if (first) {
      first = false;
      if (const auto* schema = parsed->find("schema");
          schema != nullptr && schema->is_string()) {
        const std::string& s = schema->as_string();
        if (s == "decor.field.v1") a.kind = "field";
        if (s == "decor.timeline.v1") a.kind = "timeline";
        if (s == "decor.audit.v1") a.kind = "audit";
        if (s == "decor.metrics.v1") a.kind = "metrics-stream";
        a.header = std::move(*parsed);
        a.header_line = line;
        continue;
      }
      if (parsed->find("seq") != nullptr && parsed->find("kind") != nullptr) {
        // A trace dump: index the whole file (the lines already seen are
        // malformed ones, which the index counts again).
        a.kind = "trace";
        a.trace = TraceIndex(std::move(text));
        a.malformed = a.trace.malformed();
        return a;
      }
    }
    a.records.push_back(std::move(*parsed));
    a.lines.emplace_back(line);
  }
  return a;
}

Artifact load_document(const fs::path& path, const std::string& rel,
                       const std::string& kind) {
  Artifact a;
  a.rel = rel;
  a.kind = kind;
  auto parsed = common::parse_json(read_file(path));
  if (parsed) {
    a.header = std::move(*parsed);
  } else {
    a.malformed = 1;
    a.kind = "other";
  }
  return a;
}

}  // namespace

std::vector<Artifact> load_run_artifacts(const std::string& dir,
                                         const std::string& context) {
  std::error_code ec;
  DECOR_REQUIRE_MSG(fs::is_directory(dir, ec),
                    context + ": not a readable directory: " + dir);

  std::vector<fs::path> paths;
  for (fs::recursive_directory_iterator
           it(dir, fs::directory_options::skip_permission_denied, ec),
       end;
       it != end; it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) paths.push_back(it->path());
  }
  std::vector<std::pair<std::string, fs::path>> files;
  files.reserve(paths.size());
  for (const auto& p : paths) {
    files.emplace_back(fs::relative(p, dir, ec).generic_string(), p);
  }
  std::sort(files.begin(), files.end());

  std::vector<Artifact> artifacts;
  for (const auto& [rel, path] : files) {
    const std::string name = path.filename().string();
    if (name.size() > 6 && name.ends_with(".jsonl")) {
      artifacts.push_back(load_jsonl(path, rel));
    } else if (name == "manifest.json") {
      artifacts.push_back(load_document(path, rel, "manifest"));
    } else if (name == "metrics.json") {
      artifacts.push_back(load_document(path, rel, "metrics"));
    }
  }
  return artifacts;
}

std::vector<ArtifactWarning> collect_artifact_warnings(
    const std::vector<Artifact>& artifacts) {
  std::vector<ArtifactWarning> warnings;
  for (const auto& a : artifacts) {
    const bool document = a.kind == "manifest" || a.kind == "metrics";
    if (a.kind == "other" && a.record_count() == 0) {
      warnings.push_back({a.rel, a.malformed > 0 ? "unparseable" : "empty"});
      continue;
    }
    if (!document && a.record_count() == 0) {
      warnings.push_back({a.rel, "no records (empty or truncated)"});
      continue;
    }
    if (a.malformed > 0) {
      warnings.push_back({a.rel, std::to_string(a.malformed) +
                                     " malformed line" +
                                     (a.malformed == 1 ? "" : "s")});
    }
  }
  return warnings;
}

}  // namespace decor::core
