#include "common/telemetry.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/log.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace decor::common {

const char* telemetry_stream_name(TelemetryStream s) noexcept {
  switch (s) {
    case TelemetryStream::kTimeline:
      return "timeline";
    case TelemetryStream::kField:
      return "field";
    case TelemetryStream::kAudit:
      return "audit";
    case TelemetryStream::kTrace:
      return "trace";
    case TelemetryStream::kMetrics:
      return "metrics";
  }
  return "unknown";
}

TelemetryBus::SinkId TelemetryBus::add_sink(
    std::unique_ptr<TelemetrySink> sink) {
  const SinkId id = next_id_++;
  // Replay remembered headers so a late sink still starts a well-formed
  // artifact. Headers keep seq 0 on replay, matching first delivery.
  for (const auto& [stream, line] : headers_) {
    if (sink->wants(stream)) {
      TelemetryEvent e;
      e.stream = stream;
      e.seq = 0;
      e.header = true;
      e.line = line;
      sink->on_event(e);
    }
  }
  sinks_.push_back(Entry{id, std::move(sink)});
  return id;
}

std::unique_ptr<TelemetrySink> TelemetryBus::remove_sink(SinkId id) {
  for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
    if (it->id == id) {
      std::unique_ptr<TelemetrySink> sink = std::move(it->sink);
      sinks_.erase(it);
      sink->flush();
      if (removed_failure_.empty()) removed_failure_ = sink->failure();
      return sink;
    }
  }
  return nullptr;
}

void TelemetryBus::publish(TelemetryStream s, std::string_view line,
                           bool header) {
  TelemetryEvent e;
  e.stream = s;
  e.header = header;
  if (header) {
    e.seq = 0;
    headers_.emplace_back(s, std::string(line));
  } else {
    e.seq = ++seq_[static_cast<std::size_t>(s)];
  }
  e.line = line;
  ++published_;
  for (auto& entry : sinks_) {
    if (entry.sink->wants(s)) entry.sink->on_event(e);
  }
}

bool TelemetryBus::has_sink_for(TelemetryStream s) const noexcept {
  for (const auto& entry : sinks_) {
    if (entry.sink->wants(s)) return true;
  }
  return false;
}

void TelemetryBus::flush() {
  for (auto& entry : sinks_) entry.sink->flush();
}

void TelemetryBus::checkpoint() {
  for (auto& entry : sinks_) entry.sink->checkpoint();
}

std::string TelemetryBus::failure() const {
  if (!removed_failure_.empty()) return removed_failure_;
  for (const auto& entry : sinks_) {
    std::string f = entry.sink->failure();
    if (!f.empty()) return f;
  }
  return {};
}

JsonlFileSink::JsonlFileSink(const std::string& path, TelemetryStream stream)
    : stream_(stream), path_(path), file_(std::fopen(path.c_str(), "wb")) {
  // The sink does its own block buffering; stdio's would only copy.
  if (file_ != nullptr) std::setvbuf(file_, nullptr, _IONBF, 0);
}

JsonlFileSink::~JsonlFileSink() {
  if (file_ == nullptr) return;
  write_buffer();
  if (std::fclose(file_) != 0 && error_ == 0) error_ = errno;
  if (error_ != 0 && !failure_taken_) DECOR_LOG_ERROR(failure());
}

void JsonlFileSink::on_event(const TelemetryEvent& e) {
  const std::size_t n = e.line.size() + 1;
  if (buffer_.size() + n > buffer_.capacity()) {
    write_buffer();
    // Full-size blocks from the first record on; a header line alone
    // (published when the sink is set up) allocates only its own size.
    if (!e.header) buffer_.reserve(kBlockBytes);
  }
  buffer_.append(e.line.data(), e.line.size());
  buffer_ += '\n';
}

void JsonlFileSink::write_buffer() {
  if (file_ != nullptr && error_ == 0 && !buffer_.empty() &&
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
          buffer_.size()) {
    error_ = errno != 0 ? errno : EIO;
  }
  buffer_.clear();
}

std::string JsonlFileSink::failure() const {
  if (error_ == 0) return {};
  failure_taken_ = true;
  return std::string("cannot write ") + telemetry_stream_name(stream_) +
         " JSONL sink: " + path_ + " (" + std::strerror(error_) + ")";
}

FrameStreamSink::FrameStreamSink(const std::string& target,
                                 std::size_t max_buffered)
    : max_buffered_(max_buffered) {
  // Default subscription: everything but trace (too chatty for a live
  // dashboard; OTLP handles trace export).
  streams_.fill(true);
  streams_[static_cast<std::size_t>(TelemetryStream::kTrace)] = false;

  if (target == "-") {
#ifndef _WIN32
    fd_ = 1;  // stdout, not owned
    own_fd_ = false;
    ok_ = true;
#else
    ok_ = false;
#endif
    return;
  }
  if (target.rfind("tcp:", 0) == 0) {
#ifndef _WIN32
    const std::string rest = target.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos) {
      DECOR_LOG_ERROR("telemetry: bad tcp target (want tcp:HOST:PORT): " +
                      target);
      return;
    }
    const std::string host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 || !res) {
      DECOR_LOG_ERROR("telemetry: cannot resolve " + target);
      return;
    }
    int fd = -1;
    for (addrinfo* ai = res; ai; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    freeaddrinfo(res);
    if (fd < 0) {
      DECOR_LOG_ERROR("telemetry: cannot connect " + target);
      return;
    }
    // Non-blocking from here: a stalled consumer must never stall the
    // simulation — frames drop instead.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    fd_ = fd;
    own_fd_ = true;
    nonblocking_ = true;
    ok_ = true;
#else
    ok_ = false;
#endif
    return;
  }
  file_.open(target, std::ios::out | std::ios::trunc);
  ok_ = file_.is_open();
  if (!ok_) DECOR_LOG_ERROR("telemetry: cannot open stream target: " + target);
}

FrameStreamSink::~FrameStreamSink() {
  flush();
#ifndef _WIN32
  if (own_fd_ && fd_ >= 0) ::close(fd_);
#endif
}

void FrameStreamSink::set_streams(
    std::initializer_list<TelemetryStream> streams) {
  streams_.fill(false);
  for (TelemetryStream s : streams) {
    streams_[static_cast<std::size_t>(s)] = true;
  }
}

void FrameStreamSink::on_event(const TelemetryEvent& e) {
  if (!ok_) return;
  char head[64];
  const int n =
      std::snprintf(head, sizeof head, "DTLM %s %llu %zu\n",
                    telemetry_stream_name(e.stream),
                    static_cast<unsigned long long>(e.seq), e.line.size());
  if (n <= 0) return;
  const std::size_t frame_len =
      static_cast<std::size_t>(n) + e.line.size() + 1;
  if (nonblocking_ && buffer_.size() + frame_len > max_buffered_) {
    // Whole-frame drop: a partial frame would desync the reader.
    ++dropped_;
    drain_buffer();
    return;
  }
  if (nonblocking_) {
    buffer_.append(head, static_cast<std::size_t>(n));
    buffer_.append(e.line.data(), e.line.size());
    buffer_.push_back('\n');
    drain_buffer();
  } else {
    write_bytes(head, static_cast<std::size_t>(n));
    write_bytes(e.line.data(), e.line.size());
    write_bytes("\n", 1);
  }
  ++frames_;
}

void FrameStreamSink::write_bytes(const char* data, std::size_t n) {
#ifndef _WIN32
  if (fd_ >= 0) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd_, data + off, n - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        ok_ = false;  // broken pipe etc.: go silent for the rest of the run
        return;
      }
      off += static_cast<std::size_t>(w);
    }
    return;
  }
#endif
  file_.write(data, static_cast<std::streamsize>(n));
}

void FrameStreamSink::drain_buffer() {
#ifndef _WIN32
  while (!buffer_.empty()) {
    const ssize_t w = ::write(fd_, buffer_.data(), buffer_.size());
    if (w > 0) {
      buffer_.erase(0, static_cast<std::size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    ok_ = false;
    buffer_.clear();
    return;
  }
#endif
}

void FrameStreamSink::flush() {
  if (!ok_) return;
  if (nonblocking_) {
    drain_buffer();
    return;
  }
  if (fd_ < 0) file_.flush();
}

}  // namespace decor::common
