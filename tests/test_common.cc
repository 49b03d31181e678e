// Tests for the common utilities: RNG, Status/Result, memory helpers,
// spinlock and thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/types.h"

namespace platod2gl {
namespace {

TEST(RandomTest, DeterministicForFixedSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextUint64RespectsBound) {
  Xoshiro256 rng(8);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextUint64(bound), bound);
    }
  }
}

TEST(RandomTest, NextUint64RoughlyUniform) {
  Xoshiro256 rng(9);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 100000; ++i) ++hits[rng.NextUint64(10)];
  for (int h : hits) EXPECT_NEAR(h, 10000, 600);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::NotFound("missing vertex");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing vertex");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Status::OutOfRange());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(MemoryTest, HumanBytesFormatting) {
  EXPECT_EQ(HumanBytes(0), "0.00 B");
  EXPECT_EQ(HumanBytes(1024), "1.00 KB");
  EXPECT_EQ(HumanBytes(static_cast<std::size_t>(1.5 * 1024 * 1024)),
            "1.50 MB");
}

TEST(MemoryTest, VectorBytesUsesCapacity) {
  std::vector<std::uint64_t> v;
  v.reserve(100);
  EXPECT_EQ(VectorBytes(v), 100 * sizeof(std::uint64_t));
}

TEST(MemoryTest, BreakdownTotals) {
  MemoryBreakdown m;
  m.topology_bytes = 1;
  m.index_bytes = 2;
  m.key_bytes = 3;
  m.other_bytes = 4;
  EXPECT_EQ(m.Total(), 10u);
}

TEST(SpinlockTest, MutualExclusion) {
  Spinlock mu;  // pd2gl-lint: allow-unguarded-mutex (the lock under test)
  std::int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        mu.lock();
        ++counter;
        mu.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](std::size_t) { count.fetch_add(1); },
                   /*grain=*/1);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingle) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
  std::atomic<int> n{0};
  pool.ParallelFor(1, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPoolTest, ParallelForBlockedCoversRange) {
  ThreadPool pool(3);
  for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    pool.ParallelFor(1000, [&](std::size_t i) { hits[i].fetch_add(1); },
                     grain);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain " << grain;
  }
  pool.ParallelFor(0, [](std::size_t) { FAIL(); }, 8);
}

TEST(ThreadPoolTest, WaitIsReentrant) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });  // nothing to wait for
  std::atomic<int> n{0};
  pool.ParallelFor(1, [&](std::size_t) { n.fetch_add(1); });
  pool.ParallelFor(1, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 2);
}

TEST(ThreadPoolTest, ParallelForWaitsOnlyForItsOwnTasks) {
  // Caller A parks one task on a 2-thread pool; caller B's ParallelFor on
  // the same pool must complete on the free worker without waiting for A.
  ThreadPool pool(2);
  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> released = release_a.get_future().share();
  std::thread a([&] {
    pool.ParallelFor(1, [&](std::size_t) {
      a_started.set_value();
      released.wait();
    });
  });
  a_started.get_future().wait();

  std::promise<void> b_done;
  std::future<void> b_returned = b_done.get_future();
  std::atomic<int> b_tasks{0};
  std::thread b([&] {
    pool.ParallelFor(8, [&](std::size_t) { b_tasks.fetch_add(1); });
    b_done.set_value();
  });
  const bool returned = b_returned.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  EXPECT_TRUE(returned) << "ParallelFor waited for another caller's task";
  release_a.set_value();
  a.join();
  b.join();
  EXPECT_EQ(b_tasks.load(), 8);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = t.ElapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 5000.0);
  t.Reset();
  EXPECT_LT(t.ElapsedMillis(), 20.0);
}

TEST(TypesTest, EdgeEquality) {
  const Edge a{1, 2, 0.5, 0};
  EXPECT_EQ(a, (Edge{1, 2, 0.5, 0}));
  EXPECT_NE(a, (Edge{1, 3, 0.5, 0}));
}

}  // namespace
}  // namespace platod2gl
