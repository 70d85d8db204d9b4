// Allocation probe for the event core: this binary replaces the global
// operator new with a counting one and asserts that a warmed EventQueue
// schedules and fires closures of at most 16 trivially copyable bytes (the
// replay's {this, slot} and {this, id}) without a single allocation. It is
// a binary of its own because the replacement is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace slackvm::sim {
namespace {

struct Sink {
  std::uint64_t fired = 0;
  std::uint64_t sum = 0;
};

constexpr int kEvents = 4096;

// Schedules kEvents 16-byte closures over a spread of times on both lanes;
// every eighth one schedules a 16-byte child from inside its action.
void churn(EventQueue& queue, Sink& sink) {
  const core::SimTime base = queue.now();
  for (int i = 0; i < kEvents; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    const core::SimTime t = base + static_cast<double>((i * 7919) % 1000);
    const auto lane = static_cast<std::uint8_t>(i % 2);
    if (i % 8 == 0) {
      queue.schedule_lane(t, lane, [&queue, &sink](core::SimTime now) {
        ++sink.fired;
        queue.schedule(now + 1.0, [&sink](core::SimTime) { ++sink.fired; });
      });
    } else {
      static_assert(sizeof(Sink*) + sizeof(std::uint64_t) == 16);
      queue.schedule_lane(t, lane, [s = &sink, id](core::SimTime) {
        ++s->fired;
        s->sum += id;
      });
    }
  }
  queue.run();
}

TEST(EventQueueAllocations, WarmedQueueFiresSmallClosuresWithoutAllocating) {
  EventQueue queue;
  Sink sink;
  churn(queue, sink);  // warm: the slab and the heap reach their peak size
  const std::uint64_t before = g_allocations.load();
  churn(queue, sink);
  churn(queue, sink);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0U);
  EXPECT_EQ(sink.fired, 3U * (kEvents + kEvents / 8));
}

TEST(EventQueueAllocations, ProbeSeesAnOversizedClosure) {
  // The control: a 32-byte capture no longer fits std::function's inline
  // buffer, so the same warmed path allocates once per event. Without this
  // the zero above could come from a probe that counts nothing.
  EventQueue queue;
  Sink sink;
  churn(queue, sink);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t a = static_cast<std::uint64_t>(i);
    const std::uint64_t b = a * 3;
    const std::uint64_t c = a * 5;
    queue.schedule(queue.now() + 1.0, [s = &sink, a, b, c](core::SimTime) {
      s->sum += a + b + c;
    });
  }
  queue.run();
  EXPECT_GE(g_allocations.load() - before, 64U);
}

}  // namespace
}  // namespace slackvm::sim
