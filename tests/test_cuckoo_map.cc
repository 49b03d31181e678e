// Concurrent cuckoo hash map tests (paper Section IV-B topology hashmap).
#include "storage/cuckoo_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"

namespace platod2gl {
namespace {

TEST(CuckooMapTest, InsertAndFind) {
  CuckooMap<int> map(4, 4);
  map.With(1, [](int& v) { v = 10; });
  map.With(2, [](int& v) { v = 20; });
  ASSERT_NE(map.FindUnsafe(1), nullptr);
  EXPECT_EQ(*map.FindUnsafe(1), 10);
  EXPECT_EQ(*map.FindUnsafe(2), 20);
  EXPECT_EQ(map.FindUnsafe(3), nullptr);
  EXPECT_EQ(map.Size(), 2u);
}

TEST(CuckooMapTest, WithIsUpsert) {
  CuckooMap<int> map;
  map.With(5, [](int& v) { v = 1; });
  map.With(5, [](int& v) { v += 1; });
  EXPECT_EQ(*map.FindUnsafe(5), 2);
  EXPECT_EQ(map.Size(), 1u);
}

TEST(CuckooMapTest, WithExistingSkipsAbsent) {
  CuckooMap<int> map;
  bool ran = false;
  EXPECT_FALSE(map.WithExisting(9, [&](int&) { ran = true; }));
  EXPECT_FALSE(ran);
  map.With(9, [](int& v) { v = 3; });
  EXPECT_TRUE(map.WithExisting(9, [&](int& v) { v = 4; }));
  EXPECT_EQ(*map.FindUnsafe(9), 4);
}

TEST(CuckooMapTest, GrowsUnderLoad) {
  // Tiny initial table: forces eviction walks and doubling.
  CuckooMap<std::uint64_t> map(1, 2);
  for (VertexId k = 1; k <= 10000; ++k) {
    map.With(k, [k](std::uint64_t& v) { v = k * 3; });
  }
  EXPECT_EQ(map.Size(), 10000u);
  for (VertexId k = 1; k <= 10000; ++k) {
    ASSERT_NE(map.FindUnsafe(k), nullptr) << k;
    ASSERT_EQ(*map.FindUnsafe(k), k * 3);
  }
}

TEST(CuckooMapTest, ValuePointersStableAcrossGrowth) {
  CuckooMap<std::uint64_t> map(1, 2);
  map.With(99, [](std::uint64_t& v) { v = 42; });
  std::uint64_t* p = map.FindUnsafe(99);
  for (VertexId k = 1000; k < 6000; ++k) {
    map.With(k, [](std::uint64_t& v) { v = 1; });
  }
  // Heap-pinned values: the address must survive rehashing.
  EXPECT_EQ(map.FindUnsafe(99), p);
  EXPECT_EQ(*p, 42u);
}

TEST(CuckooMapTest, ForEachVisitsAll) {
  CuckooMap<int> map;
  std::set<VertexId> expect;
  for (VertexId k = 10; k < 200; k += 10) {
    map.With(k, [](int& v) { v = 1; });
    expect.insert(k);
  }
  std::set<VertexId> seen;
  map.ForEach([&](VertexId k, const int&) { seen.insert(k); });
  EXPECT_EQ(seen, expect);
}

TEST(CuckooMapTest, MemoryUsageTracksBuckets) {
  CuckooMap<int> small(1, 2), grown(1, 2);
  for (VertexId k = 0; k < 5000; ++k) {
    grown.With(k + 1, [](int& v) { v = 1; });
  }
  EXPECT_GT(grown.MemoryUsage(), small.MemoryUsage());
}

TEST(CuckooMapTest, ConcurrentInsertsFromManyThreads) {
  CuckooMap<std::uint64_t> map(64, 8);
  constexpr int kThreads = 8;
  constexpr VertexId kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (VertexId i = 0; i < kPerThread; ++i) {
        const VertexId key = static_cast<VertexId>(t) * kPerThread + i + 1;
        map.With(key, [key](std::uint64_t& v) { v = key; });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.Size(), kThreads * kPerThread);
  for (VertexId k = 1; k <= kThreads * kPerThread; ++k) {
    ASSERT_NE(map.FindUnsafe(k), nullptr) << k;
    ASSERT_EQ(*map.FindUnsafe(k), k);
  }
}

TEST(CuckooMapTest, ConcurrentUpsertsOnSameKeys) {
  CuckooMap<std::uint64_t> map(16, 8);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map] {
      for (int round = 0; round < 2000; ++round) {
        const VertexId key = (round % 50) + 1;
        map.With(key, [](std::uint64_t& v) { v += 1; });
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  map.ForEach([&](VertexId, const std::uint64_t& v) { total += v; });
  EXPECT_EQ(total, kThreads * 2000u);  // no lost updates
  EXPECT_EQ(map.Size(), 50u);
}

TEST(CuckooMapTest, MoveOnlyValues) {
  struct MoveOnly {
    std::unique_ptr<int> p;
  };
  CuckooMap<MoveOnly> map;
  map.With(1, [](MoveOnly& m) { m.p = std::make_unique<int>(5); });
  ASSERT_NE(map.FindUnsafe(1), nullptr);
  EXPECT_EQ(*map.FindUnsafe(1)->p, 5);
}

}  // namespace
}  // namespace platod2gl
