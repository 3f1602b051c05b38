// Deterministic event scheduler tests: ordering, tie-breaking, clamping,
// the run_until horizon semantics the simulator depends on, and the
// allocation-free event path (inline actions, boxed cold closures).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc_counting.hpp"
#include "sim/event_queue.hpp"

namespace pam {
namespace {

TEST(EventQueue, StartsEmptyAtZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now().ns(), 0);
  EXPECT_FALSE(q.run_one());
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime::microseconds(30), [&] { order.push_back(3); });
  q.schedule_at(SimTime::microseconds(10), [&] { order.push_back(1); });
  q.schedule_at(SimTime::microseconds(20), [&] { order.push_back(2); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().us(), 30.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime::microseconds(5), [&order, i] { order.push_back(i); });
  }
  while (q.run_one()) {
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, SchedulingInThePastClampsToNow) {
  EventQueue q;
  bool second_ran = false;
  q.schedule_at(SimTime::microseconds(10), [&] {
    q.schedule_at(SimTime::microseconds(5), [&] {
      second_ran = true;
      EXPECT_EQ(q.now().us(), 10.0);  // clamped, time never goes backwards
    });
  });
  while (q.run_one()) {
  }
  EXPECT_TRUE(second_ran);
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  SimTime fired = SimTime::zero();
  q.schedule_at(SimTime::microseconds(10), [&] {
    q.schedule_after(SimTime::microseconds(7), [&] { fired = q.now(); });
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(fired.us(), 17.0);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int ran = 0;
  q.schedule_at(SimTime::microseconds(10), [&] { ++ran; });
  q.schedule_at(SimTime::microseconds(20), [&] { ++ran; });
  q.schedule_at(SimTime::microseconds(30), [&] { ++ran; });
  q.run_until(SimTime::microseconds(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.now().us(), 20.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.run_until(SimTime::milliseconds(5));
  EXPECT_EQ(q.now().ms(), 5.0);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      q.schedule_after(SimTime::microseconds(1), recurse);
    }
  };
  q.schedule_at(SimTime::zero(), recurse);
  while (q.run_one()) {
  }
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now().us(), 99.0);
}

TEST(EventQueue, InterleavedRunUntilCalls) {
  EventQueue q;
  int ran = 0;
  for (int i = 1; i <= 10; ++i) {
    q.schedule_at(SimTime::microseconds(i), [&] { ++ran; });
  }
  q.run_until(SimTime::microseconds(5));
  EXPECT_EQ(ran, 5);
  q.run_until(SimTime::microseconds(10));
  EXPECT_EQ(ran, 10);
}

// A packet-path sized action — six words, like (this, Packet*, node index,
// SimTime, ...) — 48 B and trivially copyable.  Each run reschedules a
// copy of itself, like a packet hopping through a chain.
struct Hop {
  EventQueue* q;
  std::uint64_t* sink;
  std::size_t node;
  SimTime stamp;
  std::uint64_t salt;
  std::uint64_t hops;

  void operator()() const {
    *sink += node + hops;
    Hop next = *this;
    ++next.hops;
    next.stamp = q->now();
    q->schedule_after(SimTime::nanoseconds(static_cast<std::int64_t>(
                          1 + (salt * (hops + 1) + node) % 997)),
                      next);
  }
};
static_assert(sizeof(Hop) == EventQueue::Action::kInlineBytes);
static_assert(EventQueue::Action::kStoredInline<Hop>);

TEST(EventQueue, PacketPathActionsDoNotAllocateInSteadyState) {
  EventQueue q;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < 1024; ++i) {
    q.schedule_after(SimTime::nanoseconds(static_cast<std::int64_t>(i)),
                     Hop{&q, &sink, i, SimTime::zero(), 0x9e3779b97f4a7c15ULL, 0});
  }
  for (int i = 0; i < 20000; ++i) {  // warm-up: heap and slot storage settle
    ASSERT_TRUE(q.run_one());
  }
  const std::uint64_t before = q.executed();
  {
    testing_alloc::AllocWindow window;
    for (int i = 0; i < 100000; ++i) {
      q.run_one();
    }
    EXPECT_EQ(window.allocs(), 0u);
  }
  EXPECT_EQ(q.executed() - before, 100000u);
  EXPECT_EQ(q.pending(), 1024u);
  EXPECT_GT(sink, 0u);
}

TEST(EventQueue, BoxedCaptureIsDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    // A shared_ptr capture is not trivially copyable: the action is boxed.
    q.schedule_at(SimTime::microseconds(1), [token] { ++*token; });
    q.schedule_at(SimTime::microseconds(9), [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 3);
    q.run_until(SimTime::microseconds(5));
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 2);  // the run action is already gone
  }
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);  // the pending one died with the queue
}

TEST(EventQueue, OversizedCaptureIsBoxedAndRuns) {
  EventQueue q;
  std::array<std::uint64_t, 8> big{};
  big.fill(3);
  std::uint64_t sum = 0;
  auto action = [big, &sum] {
    for (const std::uint64_t v : big) {
      sum += v;
    }
  };
  static_assert(!EventQueue::Action::kStoredInline<decltype(action)>);
  q.schedule_at(SimTime::microseconds(1), action);
  q.run_until(SimTime::microseconds(1));
  EXPECT_EQ(sum, 24u);
}

TEST(EventQueue, MoveOnlyCapturesAreAccepted) {
  EventQueue q;
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  q.schedule_at(SimTime::microseconds(1), [p = std::move(owned), &seen] { seen = *p; });
  q.run_until(SimTime::microseconds(2));
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, ManyInterleavedTimesKeepTotalOrder) {
  // Exercises the 4-ary heap's sifts against a sorted reference order.
  EventQueue q;
  std::vector<std::pair<std::int64_t, int>> ran;
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto at = static_cast<std::int64_t>((x >> 33) % 200);
    q.schedule_at(SimTime::nanoseconds(at), [&ran, at, i] { ran.emplace_back(at, i); });
  }
  while (q.run_one()) {
  }
  ASSERT_EQ(ran.size(), 2000u);
  for (std::size_t k = 1; k < ran.size(); ++k) {
    EXPECT_TRUE(ran[k - 1] < ran[k]) << "position " << k;
  }
}

}  // namespace
}  // namespace pam
