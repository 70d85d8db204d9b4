#include "sim/event_queue.hpp"

#include <utility>

namespace slackvm::sim {

void EventQueue::schedule_lane(core::SimTime time, std::uint8_t lane,
                               EventAction action) {
  SLACKVM_ASSERT(time >= now_);
  SLACKVM_ASSERT(next_seq_ < (std::uint64_t{1} << kLaneShift));
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t order = (static_cast<std::uint64_t>(lane) << kLaneShift) | seq;
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = static_cast<std::uint32_t>(slots_[slot].order);
    slots_[slot].order = order;
    slots_[slot].action = std::move(action);
  } else {
    SLACKVM_ASSERT(slots_.size() < kNoSlot);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{order, std::move(action)});
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{time, slot, rank_of(lane, seq)});
}

bool EventQueue::step() {
  if (heap_.empty()) {
    return false;
  }
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    sift_down(0, last);
    // The next event's slot is a cold line of a slab as large as the
    // pending set; fetching it now overlaps the miss with this action.
    __builtin_prefetch(&slots_[heap_.front().slot]);
  }
  // Take the action and free its slot before firing: a re-entrant
  // schedule() from the action may reuse this very slot or grow the slab.
  Slot& slot = slots_[top.slot];
  EventAction action = std::move(slot.action);
  slot.order = free_head_;
  free_head_ = top.slot;
  now_ = top.time;
  // Publish progress before firing: a watchdog sampling mid-action sees the
  // event that is (possibly) stuck, not the one before it.
  fired_.fetch_add(1, std::memory_order_relaxed);
  now_bits_.store(std::bit_cast<std::uint64_t>(now_), std::memory_order_relaxed);
  action(now_);
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::run_until(core::SimTime deadline) {
  while (!heap_.empty() && heap_.front().time < deadline) {
    step();
  }
  SLACKVM_ASSERT(deadline >= now_);
  now_ = deadline;
}

void EventQueue::sift_up(std::size_t hole, Key key) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(key, heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventQueue::sift_down(std::size_t hole, Key key) noexcept {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= size) {
      break;
    }
    const std::size_t end = first + 4 < size ? first + 4 : size;
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!before(heap_[best], key)) {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = key;
}

}  // namespace slackvm::sim
