// Recording a trace record allocates nothing once the trace is warm.
//
// The binary replaces the global operator new with a counting one, so it
// is kept apart from the other suites. Each case warms the trace up (the
// ring reserves its capacity, the file sink its block buffer, free texts
// their pool entries) and then counts the allocations of many more
// records: there must be none, whether the trace only streams or keeps a
// full ring.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>

#include "sim/trace.hpp"
#include "temp_path.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using decor::sim::Trace;
using decor::sim::TraceKind;
using decor::sim::TraceShape;

/// Records `n` rounds of the hot-path mix: tx, rx, a lossy drop, a crc
/// drop and a repeated protocol milestone. Node ids are large enough
/// that a rendered "kind=K from=S" detail would not fit a short-string
/// buffer.
void record_mix(Trace& trace, int n) {
  for (int i = 0; i < n; ++i) {
    const double t = 0.001 * i;
    const auto node = static_cast<std::uint32_t>(100000 + i % 97);
    const auto id = static_cast<std::uint64_t>(i + 1);
    trace.record_message(t, TraceKind::kTx, node, TraceShape::kKind, 5, node,
                         id);
    trace.record_message(t, TraceKind::kRx, node + 1, TraceShape::kKindFrom,
                         5, node, id);
    trace.record_message(t, TraceKind::kDrop, node + 2, TraceShape::kKind, 5,
                         node, id);
    trace.record_message(t, TraceKind::kDrop, node + 3,
                         TraceShape::kCrcKindFrom, 5, node, id);
    trace.record(t, TraceKind::kProtocol, node, "dead-peer=12");
  }
}

std::size_t allocations_of(Trace& trace, int n) {
  const std::size_t before = g_allocations.load();
  record_mix(trace, n);
  return g_allocations.load() - before;
}

TEST(TraceAllocations, StreamOnlyRecordsAllocateNothing) {
  const auto path = decor_test::unique_temp_path("alloc", ".jsonl");
  {
    Trace trace;
    trace.enable(true);
    trace.retain(false);
    ASSERT_TRUE(trace.open_jsonl(path.string()));
    record_mix(trace, 1000);
    // ~5 MB of lines: the sink writes its block several times over.
    EXPECT_EQ(allocations_of(trace, 15000), 0u);
    EXPECT_TRUE(trace.records().empty());
    EXPECT_EQ(trace.total_recorded(), 5u * 16000u);
  }
  EXPECT_GT(std::filesystem::file_size(path), 5u << 20);
  std::filesystem::remove(path);
}

TEST(TraceAllocations, FullRingRecordsAllocateNothing) {
  Trace trace;
  trace.enable(true);
  trace.set_capacity(4096);
  record_mix(trace, 1000);  // 5000 records: the ring is full
  ASSERT_EQ(trace.records().size(), 4096u);
  EXPECT_EQ(allocations_of(trace, 10000), 0u);
  EXPECT_EQ(trace.records().size(), 4096u);
}

TEST(TraceAllocations, FullRingWhileStreamingAllocatesNothing) {
  const auto path = decor_test::unique_temp_path("alloc", ".jsonl");
  {
    Trace trace;
    trace.enable(true);
    trace.set_capacity(4096);
    ASSERT_TRUE(trace.open_jsonl(path.string()));
    record_mix(trace, 1000);
    EXPECT_EQ(allocations_of(trace, 10000), 0u);
  }
  std::filesystem::remove(path);
}

}  // namespace
