// Discrete-event simulation core: a time-ordered event queue with a
// monotonic clock. Ties are broken first by *lane*, then by insertion
// order, which makes every simulation fully deterministic.
//
// Lanes are a coarse priority band compared before the insertion-order
// tie-break. They exist for the streaming replay (sim/event_source.hpp):
// the materialized replay schedules every workload event before any
// control event (rebalance passes, usage samples, the fault timetable), so
// at equal timestamps workload events always fired first purely by
// insertion order. A streaming replay inserts workload events lazily —
// mid-run, after the control events — and the workload lane (kLaneWorkload
// < kLaneControl) preserves the exact same firing order without knowing
// the trace length up front. Within one lane the insertion-order tie-break
// applies unchanged, and a queue whose events all share a lane behaves
// exactly like the historical (time, insertion) ordering.
//
// Storage. Actions live in a slot slab: each slot holds the event's
// `order = lane << 56 | seq` and its action, and freed slots are chained
// into an intrusive free list (the free slot's `order` holds the next free
// index), so a warmed queue reuses slots and never allocates. The heap is
// a 4-ary min-heap of 16-byte keys {time, slot, rank}: a sift moves keys,
// never actions, and a cache line holds a node's four children. Keys
// compare by time; a time tie compares `rank`, a saturating 32-bit prefix
// of `order`, and only when that ties too the two slots' `order`. So
// events pop in exactly the (time, lane, seq) order of the previous
// priority_queue layout. An action that fits std::function's inline
// buffer (a closure of at most 16 trivially copyable bytes, e.g.
// {this, id}) makes scheduling and firing allocation-free end to end
// (tests/sim_event_alloc_test.cpp).
//
// Re-entrancy. step() pops the key, moves the action out of its slot and
// frees the slot *before* firing, so an action may schedule freely — even
// into the slot it was just taken from, or while the slab reallocates. An
// action that throws leaves the queue consistent: its event is consumed,
// the clock stands at its time, and every other event stays pending.
//
// That tie-break is queue-local: it totally orders events *within* one
// queue, but says nothing about events in different queues. The sharded
// engine (sim/shard.hpp) runs one EventQueue per shard, so cross-shard
// ordering needs its own rule — samples are merged by ascending time, ties
// across queues to the lowest shard index, within a queue in fire order
// (shard_merge_order). Regression-tested in tests/sim_event_queue_test.cpp
// and tests/sim_shard_test.cpp.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace slackvm::sim {

/// Callback invoked when an event fires; receives the simulation time.
using EventAction = std::function<void(core::SimTime)>;

class EventQueue {
 public:
  /// Workload lane: trace arrivals/departures. Fires before kLaneControl at
  /// equal timestamps regardless of insertion order.
  static constexpr std::uint8_t kLaneWorkload = 0;
  /// Control lane (the default): rebalance passes, usage samples, fault
  /// timetables and their dynamically scheduled repairs/retries.
  static constexpr std::uint8_t kLaneControl = 1;

  /// Schedule `action` at absolute time `time` (>= now()) on the control
  /// lane.
  void schedule(core::SimTime time, EventAction action) {
    schedule_lane(time, kLaneControl, std::move(action));
  }

  /// Schedule on an explicit lane (see the lane constants above).
  void schedule_lane(core::SimTime time, std::uint8_t lane, EventAction action);

  /// Fire the earliest event; returns false when the queue is empty.
  bool step();

  /// Fire everything until the queue drains.
  void run();

  /// Fire everything scheduled strictly before `deadline`, then set the
  /// clock to `deadline`.
  void run_until(core::SimTime deadline);

  [[nodiscard]] core::SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Timestamp of the earliest pending event; the queue must not be empty.
  [[nodiscard]] core::SimTime next_time() const {
    SLACKVM_ASSERT(!heap_.empty());
    return heap_.front().time;
  }

  // --- cross-thread progress probes (the stall watchdog reads these from
  // another thread while the owner is mid-run; everything else on this class
  // stays single-owner). Relaxed: the probes are diagnostics, not sync.

  /// Events fired so far over the queue's lifetime.
  [[nodiscard]] std::uint64_t fired_count() const noexcept {
    return fired_.load(std::memory_order_relaxed);
  }

  /// Clock as of the most recently fired event (may trail now() while the
  /// owner sits between events; exact once the owner blocks).
  [[nodiscard]] core::SimTime approx_now() const noexcept {
    return std::bit_cast<core::SimTime>(now_bits_.load(std::memory_order_relaxed));
  }

 private:
  /// Heap node: 16 bytes, so four siblings share a cache line. `rank` is
  /// the slot's `order` squeezed into 32 bits, monotone and saturating
  /// (rank_of). Two keys with equal time and different rank are ordered
  /// without touching the slab; only equal ranks read the slots' orders.
  /// Equal timestamps are common — a clipped trace departs every VM alive
  /// at its horizon at one instant — so this keeps tie compares in-line.
  struct Key {
    core::SimTime time;
    std::uint32_t slot;
    std::uint32_t rank;
  };
  /// Slab slot: `order` packs (lane, seq), the exact tie-break behind a
  /// saturated rank. While the slot is free, `order` is the next free
  /// slot's index.
  struct Slot {
    std::uint64_t order;
    EventAction action;
  };
  static constexpr unsigned kLaneShift = 56;
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  [[nodiscard]] bool before(const Key& a, const Key& b) const noexcept {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    if (a.rank != b.rank) {
      return a.rank < b.rank;
    }
    return slots_[a.slot].order < slots_[b.slot].order;
  }
  /// Monotone in (lane, seq); lanes past kLaneControl and seqs past
  /// 2^31 - 1 saturate, and before() then falls back to the slots' order.
  [[nodiscard]] static std::uint32_t rank_of(std::uint8_t lane, std::uint64_t seq) noexcept {
    constexpr std::uint64_t kSeqCap = (std::uint64_t{1} << 31) - 1;
    if (lane > kLaneControl) {
      return 0xffffffffU;
    }
    return (static_cast<std::uint32_t>(lane) << 31) |
           static_cast<std::uint32_t>(seq < kSeqCap ? seq : kSeqCap);
  }
  void sift_up(std::size_t hole, Key key) noexcept;
  void sift_down(std::size_t hole, Key key) noexcept;

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  core::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // The atomics make EventQueue immovable; every owner holds it in place
  // (replay locals, heap-allocated shard states).
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> now_bits_{0};
};

}  // namespace slackvm::sim
