// In-memory span recording for the traced benchmark run.
//
// Every timed region of an iteration is a Phase: it always measures its
// own host seconds (the untraced metrics need them), and while the
// recorder is enabled it also appends a span (name, start, end, parent)
// to an in-memory list that the driver prints when the iteration ends.
// Spans are recorded only around the benchmark's own calls into the
// library; nothing inside the library is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;     ///< index into the span list, -1 for a root
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  int open(std::string name, double start) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), start, start, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int idx, double end) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = end;
    stack_.erase(std::find(stack_.begin(), stack_.end(), idx));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide recorder (one iteration per process).
inline SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

/// A timed region. stop() returns the elapsed host seconds; the
/// destructor stops a phase that was not stopped explicitly.
class Phase {
 public:
  explicit Phase(std::string name)
      : start_(recorder().now()),
        idx_(recorder().open(std::move(name), start_)) {}
  ~Phase() { stop(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  double stop() {
    if (!done_) {
      elapsed_ = recorder().now() - start_;
      recorder().close(idx_, start_ + elapsed_);
      done_ = true;
    }
    return elapsed_;
  }

 private:
  double start_;
  int idx_;
  bool done_ = false;
  double elapsed_ = 0.0;
};

}  // namespace perfbench
