// FCFS server tests: FIFO discipline, busy accounting, drop-tail, the
// utilisation arithmetic the device models rely on, and the lazily grown,
// allocation-free waiting ring.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "alloc_counting.hpp"
#include "sim/fcfs_server.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TEST(FcfsServer, ServesSingleJob) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  bool done = false;
  ASSERT_TRUE(srv.submit(10_us, [&] { done = true; }));
  EXPECT_TRUE(srv.busy());
  while (q.run_one()) {
  }
  EXPECT_TRUE(done);
  EXPECT_FALSE(srv.busy());
  EXPECT_EQ(q.now().us(), 10.0);
  EXPECT_EQ(srv.jobs_completed(), 1u);
}

TEST(FcfsServer, FifoOrder) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(srv.submit(1_us, [&order, i] { order.push_back(i); }));
  }
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.now().us(), 5.0);
}

TEST(FcfsServer, QueueLengthTracksWaiting) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  (void)srv.submit(10_us, [] {});
  (void)srv.submit(10_us, [] {});
  (void)srv.submit(10_us, [] {});
  EXPECT_EQ(srv.queue_length(), 2u);  // one in service, two waiting
  EXPECT_EQ(srv.max_queue_seen(), 2u);
  while (q.run_one()) {
  }
  EXPECT_EQ(srv.queue_length(), 0u);
}

TEST(FcfsServer, DropTailRejectsBeyondCapacity) {
  EventQueue q;
  FcfsServer srv{q, "dev", 2};
  EXPECT_TRUE(srv.submit(10_us, [] {}));   // in service
  EXPECT_TRUE(srv.submit(10_us, [] {}));   // queued 1
  EXPECT_TRUE(srv.submit(10_us, [] {}));   // queued 2
  EXPECT_FALSE(srv.submit(10_us, [] {}));  // rejected
  EXPECT_EQ(srv.jobs_rejected(), 1u);
  while (q.run_one()) {
  }
  EXPECT_EQ(srv.jobs_completed(), 3u);
}

TEST(FcfsServer, BusyTimeAccumulates) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  (void)srv.submit(10_us, [] {});
  (void)srv.submit(20_us, [] {});
  while (q.run_one()) {
  }
  EXPECT_EQ(srv.busy_time().us(), 30.0);
  EXPECT_DOUBLE_EQ(srv.utilization(SimTime::microseconds(60)), 0.5);
}

TEST(FcfsServer, UtilizationZeroElapsed) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  EXPECT_DOUBLE_EQ(srv.utilization(SimTime::zero()), 0.0);
}

TEST(FcfsServer, CompletionMaySubmitMoreWork) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  int chained = 0;
  std::function<void()> chain = [&] {
    if (++chained < 5) {
      (void)srv.submit(2_us, chain);
    }
  };
  (void)srv.submit(2_us, chain);
  while (q.run_one()) {
  }
  EXPECT_EQ(chained, 5);
  EXPECT_EQ(q.now().us(), 10.0);
}

TEST(FcfsServer, ResubmissionLandsBehindQueuedJobs) {
  // Work submitted from a completion must not overtake already-queued jobs.
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  std::vector<char> order;
  (void)srv.submit(1_us, [&] {
    order.push_back('a');
    (void)srv.submit(1_us, [&] { order.push_back('c'); });
  });
  (void)srv.submit(1_us, [&] { order.push_back('b'); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(FcfsServer, ZeroServiceJobsComplete) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  bool done = false;
  (void)srv.submit(SimTime::zero(), [&] { done = true; });
  while (q.run_one()) {
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(q.now().ns(), 0);
}

TEST(FcfsServer, SaturationUtilizationIsOne) {
  EventQueue q;
  FcfsServer srv{q, "dev", 1024};
  // Offer exactly 100 us of work and run for 100 us.
  for (int i = 0; i < 100; ++i) {
    (void)srv.submit(1_us, [] {});
  }
  q.run_until(SimTime::microseconds(100));
  EXPECT_NEAR(srv.utilization(SimTime::microseconds(100)), 1.0, 1e-9);
}

// A completion that resubmits one job (keeping the queue full) and then
// tries one more, which drop-tail rejects.
struct Refill {
  FcfsServer* srv;
  std::uint64_t* done;

  void operator()() const {
    ++*done;
    (void)srv->submit(1_us, Refill{srv, done});
    (void)srv->submit(1_us, Refill{srv, done});
  }
};

TEST(FcfsServer, SteadyStateAtFullQueueDoesNotAllocate) {
  EventQueue q;
  FcfsServer srv{q, "dev", 64};
  std::uint64_t done = 0;
  for (int i = 0; i < 65; ++i) {  // one in service + a full queue
    ASSERT_TRUE(srv.submit(1_us, Refill{&srv, &done}));
  }
  for (int i = 0; i < 1000; ++i) {  // warm-up
    ASSERT_TRUE(q.run_one());
  }
  const std::uint64_t rejected = srv.jobs_rejected();
  {
    testing_alloc::AllocWindow window;
    for (int i = 0; i < 10000; ++i) {
      q.run_one();
    }
    EXPECT_EQ(window.allocs(), 0u);
  }
  EXPECT_EQ(srv.queue_length(), 64u);
  EXPECT_EQ(srv.ring_slots(), 64u);
  EXPECT_EQ(srv.jobs_rejected() - rejected, 10000u);
  EXPECT_EQ(done, 11000u);
}

TEST(FcfsServer, FifoHoldsAcrossRingGrowthAndWrapAround) {
  EventQueue q;
  FcfsServer srv{q, "dev", 100};
  std::vector<int> order;
  int next = 0;
  const auto submit = [&](int n) {
    for (int k = 0; k < n; ++k) {
      const int id = next++;
      ASSERT_TRUE(srv.submit(1_us, [&order, id] { order.push_back(id); }));
    }
  };
  submit(7);  // 6 waiting in the first 8-slot ring
  for (int k = 0; k < 5; ++k) {
    q.run_one();  // head moves forward
  }
  submit(6);  // tail wraps past the end of the 8-slot ring
  EXPECT_EQ(srv.ring_slots(), 8u);
  submit(20);  // grows twice while wrapped
  EXPECT_EQ(srv.ring_slots(), 32u);
  for (int k = 0; k < 3; ++k) {
    q.run_one();
  }
  submit(10);
  while (q.run_one()) {
  }
  ASSERT_EQ(order.size(), 43u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
}

TEST(FcfsServer, DropTailAtCapacityWithGrownRing) {
  // Capacity 12 is not a ring size the doubling reaches: the ring stops at
  // exactly 12 slots and the 13th waiting job is rejected.
  EventQueue q;
  FcfsServer srv{q, "dev", 12};
  for (int i = 0; i < 13; ++i) {
    EXPECT_TRUE(srv.submit(1_us, [] {}));
  }
  EXPECT_FALSE(srv.submit(1_us, [] {}));
  EXPECT_EQ(srv.ring_slots(), 12u);
  EXPECT_EQ(srv.queue_length(), 12u);
  EXPECT_EQ(srv.jobs_rejected(), 1u);
  q.run_one();
  EXPECT_TRUE(srv.submit(1_us, [] {}));
  EXPECT_FALSE(srv.submit(1_us, [] {}));
  while (q.run_one()) {
  }
  EXPECT_EQ(srv.jobs_completed(), 14u);
  EXPECT_EQ(srv.jobs_rejected(), 2u);
  EXPECT_EQ(srv.max_queue_seen(), 12u);
}

TEST(FcfsServer, NeverQueuedServerHoldsNoRing) {
  EventQueue q;
  FcfsServer srv{q, "dev", 1536};
  EXPECT_EQ(srv.ring_slots(), 0u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(srv.submit(1_us, [] {}));
    q.run_one();
  }
  EXPECT_EQ(srv.jobs_completed(), 100u);
  EXPECT_EQ(srv.ring_slots(), 0u);
}

}  // namespace
}  // namespace pam
