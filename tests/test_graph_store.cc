// GraphStore (heterogeneous facade) tests.
#include "storage/graph_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/checkpoint.h"

namespace platod2gl {
namespace {

TEST(GraphStoreTest, SingleRelationDefaults) {
  GraphStore g;
  g.AddEdge({1, 2, 0.5, 0});
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphStoreTest, RelationsAreIsolated) {
  GraphStore g(GraphStoreConfig{.num_relations = 3});
  g.AddEdge({1, 2, 0.5, 0});
  g.AddEdge({1, 3, 0.5, 1});
  g.AddEdge({1, 4, 0.5, 2});
  EXPECT_TRUE(g.HasEdge(1, 2, 0));
  EXPECT_FALSE(g.HasEdge(1, 2, 1));
  EXPECT_EQ(g.Degree(1, 0), 1u);
  EXPECT_EQ(g.Degree(1, 1), 1u);
  EXPECT_EQ(g.Degree(1, 2), 1u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphStoreTest, ApplyBatchMixedKinds) {
  GraphStore g(GraphStoreConfig{.num_relations = 2});
  std::vector<EdgeUpdate> batch = {
      {UpdateKind::kInsert, Edge{1, 2, 1.0, 0}},
      {UpdateKind::kInsert, Edge{1, 3, 1.0, 1}},
      {UpdateKind::kInPlaceUpdate, Edge{1, 2, 5.0, 0}},
      {UpdateKind::kDelete, Edge{1, 3, 0.0, 1}},
  };
  g.ApplyBatch(batch);
  EXPECT_NEAR(*g.EdgeWeight(1, 2, 0), 5.0, 1e-12);
  EXPECT_FALSE(g.HasEdge(1, 3, 1));
}

// One seeded stream of inserts, in-place updates and deletes over two
// relations and a few hundred sources. Four map shards put ~100 sources in
// each shard, so keys share cuckoo buckets, evict each other and grow the
// shard: the map layout, and with it the snapshot bytes, depends on the
// order trees are created in. Small nodes make every tree multi-level, so
// the bytes also depend on each tree taking the store's configuration.
// Applying the stream in batches of any size must leave the same bytes as
// applying it one update at a time.
TEST(GraphStoreTest, ApplyBatchSnapshotIndependentOfBatchSplit) {
  const GraphStoreConfig config{.samtree = {.node_capacity = 8},
                                .num_shards = 4,
                                .num_relations = 2};
  Xoshiro256 rng(2024);
  std::vector<EdgeUpdate> stream;
  for (int i = 0; i < 6000; ++i) {
    const double r = rng.NextDouble();
    EdgeUpdate u;
    u.kind = r < 0.6   ? UpdateKind::kInsert
             : r < 0.8 ? UpdateKind::kInPlaceUpdate
                       : UpdateKind::kDelete;
    u.edge = Edge{rng.NextUint64(400), rng.NextUint64(48),
                  0.1 + rng.NextDouble(),
                  static_cast<EdgeType>(rng.NextUint64(2))};
    stream.push_back(u);
  }
  GraphStore per_update(config);
  for (const EdgeUpdate& u : stream) per_update.Apply(u);
  std::string expected;
  ASSERT_TRUE(SaveGraphToBytes(per_update, &expected).ok());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, stream.size()}) {
    GraphStore batched(config);
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      const auto end = stream.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(stream.size(), at + chunk));
      batched.ApplyBatch(std::vector<EdgeUpdate>(
          stream.begin() + static_cast<std::ptrdiff_t>(at), end));
    }
    EXPECT_EQ(batched.NumEdges(), per_update.NumEdges()) << "chunk " << chunk;
    std::string got;
    ASSERT_TRUE(SaveGraphToBytes(batched, &got).ok());
    EXPECT_TRUE(got == expected) << "chunk " << chunk;
  }
}

TEST(GraphStoreTest, SamplePerRelation) {
  GraphStore g(GraphStoreConfig{.num_relations = 2});
  g.AddEdge({1, 10, 1.0, 0});
  g.AddEdge({1, 20, 1.0, 1});
  Xoshiro256 rng(1);
  std::vector<VertexId> out;
  ASSERT_TRUE(g.SampleNeighbors(1, 20, true, rng, &out, 0));
  for (VertexId v : out) EXPECT_EQ(v, 10u);
  out.clear();
  ASSERT_TRUE(g.SampleNeighbors(1, 20, true, rng, &out, 1));
  for (VertexId v : out) EXPECT_EQ(v, 20u);
}

TEST(GraphStoreTest, AttributesAccessible) {
  GraphStore g;
  g.attributes().SetFeatures(1, {1.0f});
  g.attributes().SetLabel(1, 3);
  EXPECT_NE(g.attributes().GetFeatures(1), nullptr);
  EXPECT_EQ(g.attributes().GetLabel(1), std::optional<std::int64_t>(3));
}

TEST(GraphStoreTest, TopologyMemoryAggregatesRelations) {
  GraphStore g(GraphStoreConfig{.num_relations = 2});
  for (VertexId d = 0; d < 100; ++d) {
    g.AddEdge({1, d + 10, 1.0, 0});
    g.AddEdge({2, d + 10, 1.0, 1});
  }
  const MemoryBreakdown mem = g.TopologyMemory();
  EXPECT_GT(mem.topology_bytes, 0u);
  EXPECT_GT(mem.index_bytes, 0u);
}

TEST(GraphStoreTest, SamtreeConfigReachesRelations) {
  GraphStoreConfig cfg;
  cfg.samtree.node_capacity = 16;
  cfg.num_relations = 2;
  GraphStore g(cfg);
  EXPECT_EQ(g.topology(1).config().node_capacity, 16u);
}

}  // namespace
}  // namespace platod2gl
