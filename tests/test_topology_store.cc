// TopologyStore tests (paper Section IV-B).
#include "storage/topology_store.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"

namespace platod2gl {
namespace {

TEST(TopologyStoreTest, AddAndQueryEdges) {
  TopologyStore store;
  store.AddEdge(1, 2, 0.1);
  store.AddEdge(1, 3, 0.4);
  store.AddEdge(1, 5, 0.2);
  store.AddEdge(3, 4, 0.6);
  store.AddEdge(3, 7, 0.7);  // paper Example 1's graph

  EXPECT_EQ(store.NumSources(), 2u);
  EXPECT_EQ(store.NumEdges(), 5u);
  EXPECT_EQ(store.Degree(1), 3u);
  EXPECT_EQ(store.Degree(3), 2u);
  EXPECT_EQ(store.Degree(2), 0u);  // sink-only vertices store nothing
  EXPECT_TRUE(store.HasEdge(1, 3));
  EXPECT_FALSE(store.HasEdge(1, 4));
  EXPECT_NEAR(*store.EdgeWeight(3, 7), 0.7, 1e-12);
}

TEST(TopologyStoreTest, ReinsertRefreshesWeightWithoutNewEdge) {
  TopologyStore store;
  store.AddEdge(1, 2, 0.5);
  store.AddEdge(1, 2, 1.5);
  EXPECT_EQ(store.NumEdges(), 1u);
  EXPECT_NEAR(*store.EdgeWeight(1, 2), 1.5, 1e-12);
}

TEST(TopologyStoreTest, UpdateAndRemove) {
  TopologyStore store;
  store.AddEdge(1, 2, 0.5);
  EXPECT_TRUE(store.UpdateEdge(1, 2, 2.5));
  EXPECT_FALSE(store.UpdateEdge(1, 9, 1.0));
  EXPECT_FALSE(store.UpdateEdge(8, 2, 1.0));
  EXPECT_NEAR(*store.EdgeWeight(1, 2), 2.5, 1e-12);

  EXPECT_TRUE(store.RemoveEdge(1, 2));
  EXPECT_FALSE(store.RemoveEdge(1, 2));
  EXPECT_EQ(store.NumEdges(), 0u);
  EXPECT_FALSE(store.HasEdge(1, 2));
}

TEST(TopologyStoreTest, ApplyDispatchesByKind) {
  TopologyStore store;
  store.Apply({UpdateKind::kInsert, Edge{1, 2, 1.0, 0}});
  store.Apply({UpdateKind::kInPlaceUpdate, Edge{1, 2, 3.0, 0}});
  EXPECT_NEAR(*store.EdgeWeight(1, 2), 3.0, 1e-12);
  store.Apply({UpdateKind::kDelete, Edge{1, 2, 0.0, 0}});
  EXPECT_FALSE(store.HasEdge(1, 2));
}

TEST(TopologyStoreTest, SampleNeighborsRespectsSources) {
  TopologyStore store;
  Xoshiro256 rng(4);
  std::vector<VertexId> out;
  EXPECT_FALSE(store.SampleNeighbors(1, 5, true, rng, &out));
  store.AddEdge(1, 10, 1.0);
  store.AddEdge(1, 20, 1.0);
  EXPECT_TRUE(store.SampleNeighbors(1, 50, true, rng, &out));
  EXPECT_EQ(out.size(), 50u);
  for (VertexId v : out) EXPECT_TRUE(v == 10 || v == 20);
  out.clear();
  EXPECT_TRUE(store.SampleNeighbors(1, 10, false, rng, &out));
  EXPECT_EQ(out.size(), 10u);
}

TEST(TopologyStoreTest, NeighborsEnumerates) {
  TopologyStore store;
  store.AddEdge(5, 1, 0.1);
  store.AddEdge(5, 2, 0.2);
  auto nbrs = store.Neighbors(5);
  ASSERT_EQ(nbrs.size(), 2u);
  std::map<VertexId, Weight> m(nbrs.begin(), nbrs.end());
  EXPECT_NEAR(m.at(1), 0.1, 1e-12);
  EXPECT_NEAR(m.at(2), 0.2, 1e-12);
  EXPECT_TRUE(store.Neighbors(99).empty());
}

TEST(TopologyStoreTest, ConfigPropagatesToTrees) {
  TopologyStore store(SamtreeConfig{.node_capacity = 8,
                                    .alpha = 1,
                                    .compress_ids = false});
  for (VertexId d = 0; d < 100; ++d) store.AddEdge(1, d, 1.0);
  const Samtree* tree = store.FindTree(1);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->config().node_capacity, 8u);
  EXPECT_EQ(tree->config().alpha, 1u);
  EXPECT_FALSE(tree->config().compress_ids);
  EXPECT_GE(tree->Height(), 2u);  // capacity 8 with 100 neighbours: split
}

TEST(TopologyStoreTest, MemoryBreakdownNonTrivial) {
  TopologyStore store;
  for (VertexId s = 0; s < 50; ++s) {
    for (VertexId d = 0; d < 40; ++d) store.AddEdge(s, d, 1.0);
  }
  const MemoryBreakdown mem = store.Memory();
  EXPECT_GT(mem.topology_bytes, 0u);
  EXPECT_GT(mem.index_bytes, 0u);
  EXPECT_GT(mem.key_bytes, 0u);
}

TEST(TopologyStoreTest, MemoryIsTheSumOfItsTrees) {
  SamtreeOpStats& ops = Samtree::ThreadOpStats();
  ops = {};
  TopologyStore store(SamtreeConfig{.node_capacity = 8});
  for (VertexId s = 0; s < 20; ++s) {
    for (VertexId d = 0; d < 200; ++d) store.AddEdge(s, d, 1.0 + d);
  }
  // Removing most of each neighbourhood underflows leaves into merges.
  for (VertexId s = 0; s < 20; ++s) {
    for (VertexId d = 0; d < 150; ++d) ASSERT_TRUE(store.RemoveEdge(s, d));
  }
  ASSERT_GT(ops.merges, 0u);
  std::vector<std::pair<VertexId, Weight>> nbrs;
  for (VertexId d = 0; d < 500; ++d) nbrs.emplace_back(d, 0.5);
  store.InstallTree(1000, Samtree::BulkBuild(std::move(nbrs), store.config()));

  MemoryBreakdown trees;
  store.ForEachSource([&](VertexId, const Samtree& tree) {
    const MemoryBreakdown m = tree.Memory();
    trees.topology_bytes += m.topology_bytes;
    trees.index_bytes += m.index_bytes;
    trees.other_bytes += m.other_bytes;
  });
  const MemoryBreakdown mem = store.Memory();
  EXPECT_EQ(mem.topology_bytes, trees.topology_bytes);
  EXPECT_EQ(mem.index_bytes, trees.index_bytes);
  EXPECT_EQ(mem.other_bytes, trees.other_bytes);
}

TEST(TopologyStoreTest, ThreadOpStatsCountEveryTreeTheThreadWrites) {
  // The counters follow the writing thread across all of its trees: ten
  // sources, thirty inserts each.
  SamtreeOpStats& stats = Samtree::ThreadOpStats();
  stats = {};
  TopologyStore store(SamtreeConfig{.node_capacity = 4});
  for (VertexId s = 0; s < 10; ++s) {
    for (VertexId d = 0; d < 30; ++d) store.AddEdge(s, d, 1.0);
  }
  EXPECT_GE(stats.leaf_ops, 300u);
  EXPECT_GT(stats.leaf_splits, 0u);
  // Another thread's writes land in its own counters, not in these.
  const SamtreeOpStats before = stats;
  std::uint64_t other_leaf_ops = 0;
  std::thread writer([&] {
    Samtree::ThreadOpStats() = {};
    for (VertexId d = 0; d < 30; ++d) store.AddEdge(100, d, 1.0);
    other_leaf_ops = Samtree::ThreadOpStats().leaf_ops;
  });
  writer.join();
  EXPECT_GE(other_leaf_ops, 30u);
  EXPECT_EQ(stats.leaf_ops, before.leaf_ops);
  EXPECT_EQ(stats.leaf_splits, before.leaf_splits);
}

TEST(TopologyStoreTest, ConcurrentWritersDisjointSources) {
  TopologyStore store;
  constexpr int kThreads = 8;
  constexpr VertexId kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      const VertexId src = static_cast<VertexId>(t) + 1;
      for (VertexId d = 0; d < kPerThread; ++d) {
        store.AddEdge(src, d + 1000, 1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.NumEdges(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(store.Degree(static_cast<VertexId>(t) + 1), kPerThread);
  }
}

TEST(TopologyStoreTest, ConcurrentWritersSameSource) {
  // Shard locks serialise same-source updates: no lost inserts.
  TopologyStore store;
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (VertexId d = 0; d < 300; ++d) {
        store.AddEdge(42, static_cast<VertexId>(t) * 1000 + d, 1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.Degree(42), kThreads * 300u);
  std::string err;
  ASSERT_TRUE(store.FindTree(42)->CheckInvariants(&err)) << err;
}

}  // namespace
}  // namespace platod2gl
