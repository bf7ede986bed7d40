#include "decor/trace_index.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <utility>

#include "common/json.hpp"

namespace decor::core {

namespace {

TraceRecordKind kind_of(std::string_view name) {
  if (name == "tx") return TraceRecordKind::kTx;
  if (name == "rx") return TraceRecordKind::kRx;
  if (name == "drop") return TraceRecordKind::kDrop;
  if (name == "protocol") return TraceRecordKind::kProtocol;
  return TraceRecordKind::kOther;
}

/// Integer conversion of a parsed JSON number; values the target type
/// cannot hold read 0 rather than invoking an undefined conversion.
template <typename U>
U to_unsigned(double v) {
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<U>::max()) + 1.0;
  return v >= 0.0 && v < kLimit ? static_cast<U>(v) : U{0};
}

/// Cursor over one line for the canonical-shape fast path. Every step
/// fails (returns false) on the first deviation; the caller then hands
/// the whole line to parse_json.
class CanonicalLine {
 public:
  explicit CanonicalLine(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool at_end() const noexcept { return p_ == end_; }

  bool literal(std::string_view s) {
    if (static_cast<std::size_t>(end_ - p_) < s.size() ||
        std::memcmp(p_, s.data(), s.size()) != 0) {
      return false;
    }
    p_ += s.size();
    return true;
  }

  /// A bare digit run of at most 15 digits: exactly representable as a
  /// double, so the value equals parse_json's double cast to an integer.
  bool uint(std::uint64_t& out) {
    const char* start = p_;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    if (p_ == start || p_ - start > 15) return false;
    std::from_chars(start, p_, out);
    return true;
  }

  /// A JSON number, scanned with parse_json's grammar and decoded by the
  /// same std::from_chars call.
  bool number(double& out) {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (!digits()) return false;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (!digits()) return false;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!digits()) return false;
    }
    return std::from_chars(start, p_, out).ec == std::errc{};
  }

  /// The body of a string whose opening quote was already consumed, up
  /// to (and consuming) the closing quote. Escapes and control characters
  /// are left to the fallback.
  bool plain_string(std::string_view& out) {
    const char* start = p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\' || static_cast<unsigned char>(*p_) < 0x20) return false;
      ++p_;
    }
    if (p_ == end_) return false;
    out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    ++p_;
    return true;
  }

 private:
  bool digits() {
    const char* start = p_;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    return p_ != start;
  }

  const char* p_;
  const char* end_;
};

/// Decodes `line` if it has exactly the shape sim::append_trace_record_json
/// writes; `detail` is then a view into `line`.
bool decode_canonical(std::string_view line, TraceEntry& e,
                      std::string_view& detail) {
  CanonicalLine c(line);
  std::uint64_t node = 0;
  std::string_view kind;
  if (!(c.literal("{\"seq\":") && c.uint(e.seq) && c.literal(",\"t\":") &&
        c.number(e.t) && c.literal(",\"kind\":\"") && c.plain_string(kind) &&
        c.literal(",\"node\":") && c.uint(node) &&
        c.literal(",\"trace\":") && c.uint(e.trace) &&
        c.literal(",\"detail\":\"") && c.plain_string(detail) &&
        c.literal("}") && c.at_end())) {
    return false;
  }
  if (node > std::numeric_limits<std::uint32_t>::max()) return false;
  e.node = static_cast<std::uint32_t>(node);
  e.kind = kind_of(kind);
  return true;
}

double number_member(const common::JsonValue& v, std::string_view key) {
  const auto* m = v.find(key);
  return m != nullptr ? m->as_number() : 0.0;
}

/// The general decoder: any JSON document, read with the DOM accessors'
/// defaults.
bool decode_json(std::string_view line, TraceEntry& e, std::string& detail) {
  const auto v = common::parse_json(line);
  if (!v) return false;
  e.seq = to_unsigned<std::uint64_t>(number_member(*v, "seq"));
  e.t = number_member(*v, "t");
  const auto* kind = v->find("kind");
  e.kind = kind != nullptr && kind->is_string() ? kind_of(kind->as_string())
                                                : TraceRecordKind::kNone;
  e.node = to_unsigned<std::uint32_t>(number_member(*v, "node"));
  e.trace = to_unsigned<std::uint64_t>(number_member(*v, "trace"));
  const auto* d = v->find("detail");
  detail = d != nullptr ? d->as_string() : std::string();
  return true;
}

}  // namespace

TraceIndex::TraceIndex(std::string text) : pool_(std::move(text)) {
  const std::size_t text_size = pool_.size();
  records_.reserve(static_cast<std::size_t>(
      std::count(pool_.begin(), pool_.end(), '\n') + 1));
  // Details decoded by the fallback are collected separately and appended
  // to the pool once at the end, so the line views stay valid meanwhile.
  std::string decoded;
  std::vector<std::size_t> decoded_records;
  std::string fallback_detail;
  constexpr std::size_t kMaxLine = std::numeric_limits<std::uint32_t>::max();

  const std::string_view text_view(pool_);
  std::size_t pos = 0;
  while (pos < text_size) {
    std::size_t nl = text_view.find('\n', pos);
    if (nl == std::string_view::npos) nl = text_size;
    const std::string_view line = text_view.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (line.size() > kMaxLine) {
      ++malformed_;
      continue;
    }
    TraceEntry e;
    std::string_view detail;
    if (decode_canonical(line, e, detail)) {
      e.detail_off = static_cast<std::uint64_t>(detail.data() - pool_.data());
      e.detail_len = static_cast<std::uint32_t>(detail.size());
    } else if (decode_json(line, e, fallback_detail)) {
      e.detail_off = decoded.size();
      e.detail_len = static_cast<std::uint32_t>(fallback_detail.size());
      decoded += fallback_detail;
      decoded_records.push_back(records_.size());
    } else {
      ++malformed_;
      continue;
    }
    records_.push_back(e);
  }
  pool_ += decoded;
  for (const std::size_t i : decoded_records) records_[i].detail_off += text_size;
}

std::int64_t parse_detail_from(std::string_view detail) {
  const auto pos = detail.find("from=");
  if (pos == std::string_view::npos) return -1;
  std::int64_t v = 0;
  bool any = false;
  for (std::size_t i = pos + 5; i < detail.size(); ++i) {
    const char c = detail[i];
    if (c < '0' || c > '9') break;
    // Saturate instead of overflowing on absurdly long digit runs.
    v = v > (std::numeric_limits<std::int64_t>::max() - 9) / 10
            ? std::numeric_limits<std::int64_t>::max()
            : v * 10 + (c - '0');
    any = true;
  }
  return any ? v : -1;
}

}  // namespace decor::core
