#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/error.hpp"

namespace slackvm::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30.0, [&](core::SimTime) { order.push_back(3); });
  queue.schedule(10.0, [&](core::SimTime) { order.push_back(1); });
  queue.schedule(20.0, [&](core::SimTime) { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 30.0);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(7.0, [&order, i](core::SimTime) { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ActionReceivesFireTime) {
  EventQueue queue;
  core::SimTime seen = -1;
  queue.schedule(42.0, [&](core::SimTime t) { seen = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(EventQueueTest, ReentrantScheduling) {
  EventQueue queue;
  std::vector<core::SimTime> fired;
  queue.schedule(1.0, [&](core::SimTime t) {
    fired.push_back(t);
    queue.schedule(t + 1.0, [&](core::SimTime t2) { fired.push_back(t2); });
  });
  queue.run();
  EXPECT_EQ(fired, (std::vector<core::SimTime>{1.0, 2.0}));
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
  EventQueue queue;
  queue.schedule(10.0, [](core::SimTime) {});
  queue.run();
  EXPECT_THROW(queue.schedule(5.0, [](core::SimTime) {}), core::SlackError);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.step());
  queue.schedule(1.0, [](core::SimTime) {});
  EXPECT_TRUE(queue.step());
  EXPECT_FALSE(queue.step());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(1.0, [&](core::SimTime) { fired.push_back(1); });
  queue.schedule(5.0, [&](core::SimTime) { fired.push_back(5); });
  queue.run_until(3.0);
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.pending(), 1U);
  queue.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 5}));
}

TEST(EventQueueTest, PendingCountsScheduled) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.schedule(1.0, [](core::SimTime) {});
  queue.schedule(2.0, [](core::SimTime) {});
  EXPECT_EQ(queue.pending(), 2U);
}

// --- cross-shard ordering regressions ---------------------------------------
//
// The insertion-order tie-break is queue-local; when several queues run side
// by side (sim/shard.hpp) the documented cross-queue rule is: ascending
// time, ties to the lowest queue (shard) index, within a queue in fire
// order. These tests pin the two queue-side properties that rule builds on:
// fire order at one timestamp is exactly insertion order regardless of how
// the heap sifts, and run_until leaves every queue at the identical clock so
// windows line up across shards.

TEST(EventQueueTest, SameTimestampFireOrderSurvivesHeapChurn) {
  // Interleave many t=5 events with earlier and later ones so the heap
  // reshuffles between the tied entries; fire order at t=5 must still be
  // exactly insertion order.
  EventQueue queue;
  std::vector<int> tied;
  for (int i = 0; i < 16; ++i) {
    queue.schedule(5.0, [&tied, i](core::SimTime) { tied.push_back(i); });
    queue.schedule(1.0 + 0.1 * i, [](core::SimTime) {});
    queue.schedule(9.0 - 0.1 * i, [](core::SimTime) {});
  }
  queue.run();
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) {
    expected[static_cast<std::size_t>(i)] = i;
  }
  EXPECT_EQ(tied, expected);
}

TEST(EventQueueTest, TwoQueuesReplayIdenticalSchedulesIdentically) {
  // Two queues fed the same (time, payload) schedule in the same order must
  // fire in the same sequence — the per-shard half of the cross-shard
  // determinism argument: a shard's fire order depends only on its own
  // schedule, never on how other queues interleave in wall-clock time.
  const std::vector<core::SimTime> times = {3.0, 1.0, 3.0, 2.0, 3.0, 1.0};
  std::vector<int> a;
  std::vector<int> b;
  EventQueue qa;
  EventQueue qb;
  for (std::size_t i = 0; i < times.size(); ++i) {
    qa.schedule(times[i], [&a, i](core::SimTime) { a.push_back(static_cast<int>(i)); });
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    qb.schedule(times[i], [&b, i](core::SimTime) { b.push_back(static_cast<int>(i)); });
  }
  // Drive them through different window cuts: qa in one go, qb in windows.
  qa.run();
  qb.run_until(2.5);
  qb.run_until(3.0);  // strictly-before semantics: t=3 events not yet fired
  EXPECT_EQ(b.size(), 3U);
  qb.run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::vector<int>{1, 5, 3, 0, 2, 4}));
}

TEST(EventQueueTest, RunUntilAlignsClocksAcrossQueues) {
  // Barrier alignment: after run_until(t) every queue reports now() == t,
  // even a queue with nothing to fire — so a post-barrier schedule at t is
  // legal on every shard.
  EventQueue busy;
  EventQueue idle;
  busy.schedule(1.0, [](core::SimTime) {});
  busy.run_until(4.0);
  idle.run_until(4.0);
  EXPECT_DOUBLE_EQ(busy.now(), 4.0);
  EXPECT_DOUBLE_EQ(idle.now(), 4.0);
  idle.schedule(4.0, [](core::SimTime) {});
  EXPECT_EQ(idle.pending(), 1U);
}

TEST(EventQueueTest, ReentrantScheduleReusesTheFiredSlot) {
  // The firing event's slot is freed before its action runs, so the first
  // schedule() inside the action takes that very slot. Order must still be
  // (time, lane, seq): the workload-lane child fires before the control
  // event already pending at the same time, the control-lane child after.
  EventQueue queue;
  std::vector<char> order;
  queue.schedule(1.0, [&](core::SimTime t) {
    order.push_back('A');
    queue.schedule_lane(t, EventQueue::kLaneWorkload,
                        [&](core::SimTime) { order.push_back('B'); });
    queue.schedule(t, [&](core::SimTime) { order.push_back('C'); });
  });
  queue.schedule(1.0, [&](core::SimTime) { order.push_back('D'); });
  queue.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'D', 'C'}));
}

TEST(EventQueueTest, ThrowingActionLeavesQueueConsistent) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(1.0, [&](core::SimTime) { fired.push_back(1); });
  queue.schedule(2.0, [](core::SimTime) { throw std::runtime_error("boom"); });
  queue.schedule(3.0, [&](core::SimTime) { fired.push_back(3); });
  EXPECT_THROW(queue.run(), std::runtime_error);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
  EXPECT_EQ(queue.pending(), 1U);
  queue.schedule(2.0, [&](core::SimTime) { fired.push_back(2); });
  queue.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

// --- differential: the queue against a sorted (time, lane, seq) reference ---
//
// Every action checks, as it fires, that it is the reference's minimum and
// removes itself from it; some schedule a child from inside (taking the
// slot just freed), some throw. The driver interleaves schedule, step and
// run_until (at an event time and between event times) and compares the
// pending count and the next time after every operation.
class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}

  enum class Kind : std::uint8_t { kPlain, kChild, kThrow };

  void schedule(core::SimTime time, std::uint8_t lane, Kind kind) {
    const int id = next_id_++;
    reference_.emplace(time, lane, seq_++, id);
    queue_.schedule_lane(time, lane, [this, id, kind](core::SimTime t) { fire(id, kind, t); });
  }

  void random_schedule() {
    // Times on a 0.5 grid a few steps ahead: many exact ties, on both
    // lanes and, rarely, on lanes past kLaneControl (whose in-key rank
    // saturates, so their ties fall back to the slab's exact order).
    const core::SimTime time = queue_.now() + 0.5 * static_cast<double>(pick(7));
    const std::uint64_t lane_roll = pick(20);
    const auto lane = static_cast<std::uint8_t>(lane_roll < 18 ? lane_roll % 2 : lane_roll - 16);
    const std::uint64_t roll = pick(100);
    const Kind kind = roll < 20 ? Kind::kChild : roll < 23 ? Kind::kThrow : Kind::kPlain;
    schedule(time, lane, kind);
  }

  void step() {
    const bool had = !reference_.empty();
    try {
      EXPECT_EQ(queue_.step(), had);
    } catch (const std::runtime_error&) {
      ++throws_;
    }
  }

  void run_until() {
    core::SimTime deadline = queue_.now() + 0.25;
    if (!reference_.empty()) {
      const core::SimTime next = std::get<0>(*reference_.begin());
      // Exactly at a pending event's time, or strictly between grid points.
      deadline = pick(2) == 0 ? next + 0.5 * static_cast<double>(pick(3))
                              : next + 0.25 + 0.5 * static_cast<double>(pick(2));
    }
    try {
      queue_.run_until(deadline);
      EXPECT_DOUBLE_EQ(queue_.now(), deadline);
      EXPECT_TRUE(reference_.empty() || std::get<0>(*reference_.begin()) >= deadline);
    } catch (const std::runtime_error&) {
      ++throws_;
    }
  }

  void check() {
    ASSERT_EQ(queue_.pending(), reference_.size());
    ASSERT_EQ(queue_.empty(), reference_.empty());
    if (!reference_.empty()) {
      ASSERT_EQ(queue_.next_time(), std::get<0>(*reference_.begin()));
    }
    ASSERT_EQ(mismatches_, 0U);
  }

  void drain() {
    while (!queue_.empty()) {
      step();
    }
  }

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  [[nodiscard]] std::size_t fired() const { return fired_; }
  [[nodiscard]] std::size_t throws() const { return throws_; }
  [[nodiscard]] std::size_t children() const { return children_; }

 private:
  void fire(int id, Kind kind, core::SimTime t) {
    ++fired_;
    if (reference_.empty() || std::get<3>(*reference_.begin()) != id ||
        std::get<0>(*reference_.begin()) != t) {
      ++mismatches_;
      return;
    }
    reference_.erase(reference_.begin());
    if (kind == Kind::kChild) {
      ++children_;
      // Same time on either lane (fires within this timestamp) or later.
      schedule(t + 0.5 * static_cast<double>(pick(3)), static_cast<std::uint8_t>(pick(2)),
               pick(4) == 0 ? Kind::kChild : Kind::kPlain);
    } else if (kind == Kind::kThrow) {
      throw std::runtime_error("action failed");
    }
  }

  std::mt19937_64 rng_;
  EventQueue queue_;
  std::set<std::tuple<core::SimTime, std::uint8_t, std::uint64_t, int>> reference_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::size_t fired_ = 0;
  std::size_t throws_ = 0;
  std::size_t children_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(EventQueueDifferential, RandomOperationsMatchSortedReference) {
  QueueDifferential diff(20260917);
  constexpr int kOps = 120000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t roll = diff.pick(100);
    if (roll < 50) {
      diff.random_schedule();
    } else if (roll < 95) {
      diff.step();
    } else {
      diff.run_until();
    }
    diff.check();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at operation " << op;
    }
  }
  diff.drain();
  diff.check();
  // The mix really exercised every path.
  EXPECT_GT(diff.fired(), 50000U);
  EXPECT_GT(diff.children(), 5000U);
  EXPECT_GT(diff.throws(), 500U);
}

}  // namespace
}  // namespace slackvm::sim
