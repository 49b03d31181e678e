// Race-stress suites for the TSan CI job (and tier-1, where they run as
// plain concurrency smoke tests).
//
// Every scenario here sticks to the documented synchronisation contracts —
// readers and the latch-free batch apply touch disjoint source partitions,
// map structure is never grown while lock-free readers are live, cluster
// writers are serialised per shard, the sample cache and thread pool are
// hammered from many threads at once — so a TSan
// report is a *bug*, not an expected finding. This is the runtime
// counterpart of the clang -Wthread-safety job: the annotations prove the
// locking discipline statically, these tests prove the lock-free
// protocols (version stamps, atomic counters, heap-pinned values)
// dynamically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "dist/cluster.h"
#include "io/checkpoint.h"
#include "sampling/sample_cache.h"
#include "storage/cuckoo_map.h"
#include "storage/graph_store.h"
#include "storage/topology_store.h"

namespace platod2gl {
namespace {

// Readers sample a read-only source partition through the hot-vertex
// cache while the latch-free batch apply churns a disjoint partition — the
// PALM-style schedule the paper's serving path uses. All sources exist
// before the threads start, so the cuckoo map's structure is immutable
// and the lock-free FindTree reads are race-free by contract.
TEST(RaceStressTest, SamplersVsBatchUpdaterOnDisjointPartitions) {
  constexpr std::size_t kSources = 256;
  constexpr std::size_t kReadPartition = kSources / 2;
  constexpr std::size_t kDegree = 48;
  constexpr int kReaderThreads = 4;
  constexpr int kRounds = 6;

  GraphStoreConfig config;
  config.sample_cache.min_degree = 8;
  config.sample_cache.admit_after_misses = 1;
  config.sample_cache.capacity = 128;  // small: keep eviction churn alive
  config.sample_cache.num_shards = 4;
  GraphStore graph(config);

  Xoshiro256 seed_rng(99);
  for (VertexId src = 0; src < kSources; ++src) {
    for (std::size_t j = 0; j < kDegree; ++j) {
      graph.AddEdge(Edge{src, 100000 + seed_rng.NextUint64(5000),
                         0.1 + seed_rng.NextDouble(), 0});
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> draws{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      std::vector<VertexId> out;
      while (!stop.load(std::memory_order_acquire)) {
        out.clear();
        const VertexId src = rng.NextUint64(kReadPartition);
        if (graph.SampleNeighbors(src, 16, (t & 1) != 0, rng, &out)) {
          // order: test tally; joins order the final read
          draws.fetch_add(out.size(), std::memory_order_relaxed);
        }
      }
    });
  }

  ThreadPool pool(4);
  Xoshiro256 batch_rng(7);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EdgeUpdate> batch;
    batch.reserve(2000);
    for (int i = 0; i < 2000; ++i) {
      // Writer partition only: sources [kReadPartition, kSources).
      const VertexId src =
          kReadPartition + batch_rng.NextUint64(kSources - kReadPartition);
      const double r = batch_rng.NextDouble();
      EdgeUpdate u;
      u.edge = Edge{src, 100000 + batch_rng.NextUint64(5000),
                    0.1 + batch_rng.NextDouble(), 0};
      u.kind = r < 0.6 ? UpdateKind::kInsert
                       : (r < 0.8 ? UpdateKind::kInPlaceUpdate
                                  : UpdateKind::kDelete);
      batch.push_back(u);
    }
    graph.ApplyBatch(batch, &pool);
  }

  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_GT(draws.load(), 0u);
  std::string err;
  EXPECT_TRUE(graph.topology(0).CheckAllInvariants(&err)) << err;
  // Each Sample call lands in exactly one stats bucket.
  const SampleCacheStats stats = graph.sample_cache()->Stats();
  EXPECT_GT(stats.hits + stats.misses + stats.stale_hits, 0u);
}

// Two client threads write through GraphCluster::ApplyBatch at once. Each
// sends insert-only batches whose sources all live on shard 0, so both
// mutate the same samtrees; destinations are disjoint, so the final store
// is the union of the two streams. A shard logs and applies each batch as
// one step, so replaying its WAL in log order rebuilds the live store byte
// for byte. Each shard has two replicas, and each writer ships inline
// after its batch, so one writer's ship reads shard 0's WAL while the
// other writer appends to it. No checkpoint is taken, so no ship
// bootstraps from the live store.
TEST(RaceStressTest, TwoClusterWritersShareSourcesOnOneShard) {
  constexpr int kBatches = 200;
  constexpr int kPerBatch = 32;
  constexpr std::size_t kReplicas = 2;
  ClusterConfig config;
  config.rpc_latency_us = 0;
  config.replication.num_replicas = kReplicas;
  GraphCluster cluster(config);
  std::vector<VertexId> sources;
  for (VertexId v = 0; sources.size() < 16; ++v) {
    if (cluster.partitioner().ShardOf(v) == 0) sources.push_back(v);
  }
  const auto edge_of = [&](int writer, int b, int i) {
    return Edge{sources[static_cast<std::size_t>(b + i) % sources.size()],
                static_cast<VertexId>(2 * (b * kPerBatch + i) + writer),
                1.0 + writer, 0};
  };
  const auto write = [&](int writer) {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < kPerBatch; ++i) {
        batch.push_back({UpdateKind::kInsert, edge_of(writer, b, i)});
      }
      EXPECT_TRUE(cluster.ApplyBatch(batch).ok());
    }
  };
  std::thread first(write, 0);
  std::thread second(write, 1);
  first.join();
  second.join();

  const GraphShard& shard = cluster.shard(0);
  const GraphStore& store = shard.store();
  EXPECT_EQ(store.NumEdges(), 2u * kBatches * kPerBatch);
  EXPECT_EQ(shard.wal_seq(), 2u * kBatches * kPerBatch);
  for (int writer = 0; writer < 2; ++writer) {
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kPerBatch; ++i) {
        const Edge e = edge_of(writer, b, i);
        const std::optional<Weight> w = store.EdgeWeight(e.src, e.dst);
        ASSERT_TRUE(w.has_value()) << e.src << "->" << e.dst;
        EXPECT_EQ(*w, e.weight);
      }
    }
  }
  std::string err;
  EXPECT_TRUE(store.topology(0).CheckAllInvariants(&err)) << err;

  GraphStore replay(config.shard_config);
  shard.wal().ReplayInto(&replay, 0, shard.wal_seq());
  std::string live_bytes;
  std::string replay_bytes;
  ASSERT_TRUE(SaveGraphToBytes(store, &live_bytes).ok());
  ASSERT_TRUE(SaveGraphToBytes(replay, &replay_bytes).ok());
  EXPECT_TRUE(live_bytes == replay_bytes);

  ASSERT_TRUE(cluster.FlushReplication().ok());
  for (std::size_t r = 0; r < kReplicas; ++r) {
    std::string replica_bytes;
    ASSERT_TRUE(
        cluster.replication()->SnapshotReplica(0, r, &replica_bytes).ok());
    EXPECT_TRUE(replica_bytes == live_bytes) << "replica " << r;
  }
}

// Admission, eviction and stale-entry rebuild all racing on a shared
// sample cache: reader rounds run fully concurrent, mutations happen in
// the quiescent gaps between rounds (mutating a tree that a concurrent
// BuildEntry is walking is outside the cache's contract).
TEST(RaceStressTest, SampleCacheAdmissionEvictionRebuildChurn) {
  constexpr std::size_t kTrees = 300;
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  constexpr int kDrawsPerThread = 4000;

  TopologyStore store;
  Xoshiro256 seed_rng(5);
  for (VertexId src = 0; src < kTrees; ++src) {
    for (std::size_t j = 0; j < 24; ++j) {
      store.AddEdge(src, 7000 + seed_rng.NextUint64(900),
                    0.1 + seed_rng.NextDouble());
    }
  }

  SampleCacheConfig cfg;
  cfg.capacity = 128;  // << kTrees: constant LRU pressure
  cfg.num_shards = 4;
  cfg.min_degree = 4;
  cfg.admit_after_misses = 1;
  SampleCache cache(cfg);

  std::uint64_t calls = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, round] {
        Xoshiro256 rng(round * 100 + t);
        std::vector<VertexId> out;
        for (int i = 0; i < kDrawsPerThread; ++i) {
          // Zipf-ish skew: half the traffic on 16 hot trees keeps them
          // cached across rounds so post-mutation hits are stale hits.
          const VertexId src = (i & 1) != 0 ? rng.NextUint64(16)
                                            : rng.NextUint64(kTrees);
          const Samtree* tree = store.FindTree(src);
          ASSERT_NE(tree, nullptr);
          out.clear();
          if (!cache.Sample(src, 0, *tree, (i & 2) != 0, 4, rng, &out)) {
            // Cold path: the descent the cache declined to serve.
            store.SampleNeighbors(src, 4, false, rng, &out);
          }
          ASSERT_EQ(out.size(), 4u);
        }
      });
    }
    for (auto& th : threads) th.join();
    calls += static_cast<std::uint64_t>(kThreads) * kDrawsPerThread;

    // Quiescent gap: stale out the hot set for the next round.
    for (VertexId src = 0; src < 16; ++src) {
      store.UpdateEdge(src, 7000 + seed_rng.NextUint64(900),
                       0.1 + seed_rng.NextDouble());
      store.AddEdge(src, 7000 + seed_rng.NextUint64(900), 1.0);
    }
  }

  const SampleCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.stale_hits, calls);
  EXPECT_GT(stats.admissions, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.rebuilds, 0u);
  EXPECT_EQ(stats.rebuilds, stats.stale_hits);
}

// GetOrCreate / With / Erase / Size all racing on one map. Values are
// bumped under the shard lock; Size() reads the relaxed atomic counters,
// so polling it mid-insert is race-free (it used to be a plain size_t —
// this test is the TSan regression lock for that fix).
TEST(RaceStressTest, CuckooMapConcurrentWritersAndSizePolling) {
  CuckooMap<std::uint64_t> map(8, 4);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeysPerThread = 400;
  constexpr int kRepeats = 25;

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t n = map.Size();
      EXPECT_GE(n + 1, last);  // grows monotonically in this test (no Erase)
      last = n;
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Each thread owns keys [t*K, (t+1)*K) and shares keys [10^6, 10^6+64)
      // with every other thread.
      for (int r = 0; r < kRepeats; ++r) {
        for (std::uint64_t k = 0; k < kKeysPerThread; ++k) {
          map.With(1 + t * kKeysPerThread + k,
                   [](std::uint64_t& v) { ++v; });
        }
        for (std::uint64_t k = 0; k < 64; ++k) {
          map.With(1000000 + k, [](std::uint64_t& v) { ++v; });
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(map.Size(), kThreads * kKeysPerThread + 64);
  std::uint64_t total = 0;
  map.ForEach([&](VertexId, const std::uint64_t& v) { total += v; });
  EXPECT_EQ(total,
            static_cast<std::uint64_t>(kThreads) * kRepeats *
                (kKeysPerThread + 64));
}

// Concurrent ParallelFor storms from external threads plus overlapping
// blocked calls: exercises the guarded queue and per-call completion
// state the thread-safety annotations cover. Every caller waits for its
// own tasks only, so all of them must complete with their full count.
TEST(RaceStressTest, ThreadPoolSubmitAndParallelForStorm) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> counter{0};

  constexpr int kCallers = 4;
  constexpr int kCallsEach = 1500;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsEach; ++i) {
        pool.ParallelFor(1, [&](std::size_t) {
          // order: test tally; joins order the final read
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(counter.load(), kCallers * kCallsEach);

  counter.store(0);
  std::thread a([&] {
    pool.ParallelFor(
        5000,
        [&](std::size_t) {
          // order: test tally; joins order the final read
          counter.fetch_add(1, std::memory_order_relaxed);
        },
        64);
  });
  std::thread b([&] {
    pool.ParallelFor(
        5000,
        [&](std::size_t) {
          // order: test tally; joins order the final read
          counter.fetch_add(1, std::memory_order_relaxed);
        },
        64);
  });
  a.join();
  b.join();
  EXPECT_EQ(counter.load(), 10000u);
}

}  // namespace
}  // namespace platod2gl
