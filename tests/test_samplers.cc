// Sampler tests: node / neighbor / subgraph sampling operators (paper
// Section III).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sampling/neighbor_sampler.h"
#include "sampling/node_sampler.h"
#include "sampling/subgraph_sampler.h"
#include "storage/graph_store.h"

namespace platod2gl {
namespace {

// Seeds 1..10, seed s links to {s*100 + 1 .. s*100 + 5}.
void FillStarGraph(GraphStore* g) {
  for (VertexId s = 1; s <= 10; ++s) {
    for (VertexId k = 1; k <= 5; ++k) {
      g->AddEdge({s, s * 100 + k, 1.0, 0});
    }
  }
}

TEST(NeighborSamplerTest, BatchLayoutAndMembership) {
  GraphStore g;
  FillStarGraph(&g);
  NeighborSampler sampler(&g);
  Xoshiro256 rng(1);
  const std::vector<VertexId> seeds = {1, 5, 999, 10};
  const NeighborBatch batch =
      sampler.Sample(seeds, {.fanout = 8, .weighted = true}, rng);
  ASSERT_EQ(batch.NumSeeds(), 4u);
  EXPECT_EQ(batch.offsets[1] - batch.offsets[0], 8u);
  EXPECT_EQ(batch.offsets[3] - batch.offsets[2], 0u);  // dangling seed 999
  for (std::size_t j = batch.offsets[0]; j < batch.offsets[1]; ++j) {
    EXPECT_GE(batch.neighbors[j], 101u);
    EXPECT_LE(batch.neighbors[j], 105u);
  }
  for (std::size_t j = batch.offsets[3]; j < batch.offsets[4]; ++j) {
    EXPECT_GE(batch.neighbors[j], 1001u);
  }
}

TEST(NodeSamplerTest, UniformCoversSources) {
  GraphStore g;
  FillStarGraph(&g);
  NodeSampler sampler(&g.topology(0));
  EXPECT_EQ(sampler.population(), 10u);
  Xoshiro256 rng(2);
  std::set<VertexId> seen;
  for (VertexId v : sampler.SampleUniform(5000, rng)) {
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(NodeSamplerTest, RefreshSeesNewVertices) {
  GraphStore g;
  FillStarGraph(&g);
  NodeSampler sampler(&g.topology(0));
  g.AddEdge({77, 78, 1.0, 0});
  EXPECT_EQ(sampler.population(), 10u);  // stale until refresh
  sampler.Refresh();
  EXPECT_EQ(sampler.population(), 11u);
}

TEST(NodeSamplerTest, EmptyStoreYieldsNothing) {
  TopologyStore empty;
  NodeSampler sampler(&empty);
  Xoshiro256 rng(4);
  EXPECT_TRUE(sampler.SampleUniform(10, rng).empty());
}

TEST(SubgraphSamplerTest, TwoHopShapeAndParents) {
  // 1 -> {2,3}; 2 -> {4}; 3 -> {5}.
  GraphStore g;
  g.AddEdge({1, 2, 1.0, 0});
  g.AddEdge({1, 3, 1.0, 0});
  g.AddEdge({2, 4, 1.0, 0});
  g.AddEdge({3, 5, 1.0, 0});
  SubgraphSampler sampler(&g);
  Xoshiro256 rng(5);
  const SampledSubgraph sg =
      sampler.Sample({1}, {{.fanout = 4}, {.fanout = 2}}, rng);
  ASSERT_EQ(sg.layers.size(), 3u);
  ASSERT_EQ(sg.parents.size(), 2u);
  EXPECT_EQ(sg.layers[0], (std::vector<VertexId>{1}));
  EXPECT_EQ(sg.layers[1].size(), 4u);
  for (VertexId v : sg.layers[1]) EXPECT_TRUE(v == 2 || v == 3);
  // Every hop-2 vertex's parent link must be consistent with topology.
  for (std::size_t j = 0; j < sg.layers[2].size(); ++j) {
    const VertexId parent = sg.layers[1][sg.parents[1][j]];
    const VertexId child = sg.layers[2][j];
    EXPECT_TRUE((parent == 2 && child == 4) || (parent == 3 && child == 5))
        << parent << "->" << child;
  }
  EXPECT_EQ(sg.NumHops(), 2u);
  EXPECT_EQ(sg.TotalVertices(), 1 + sg.layers[1].size() + sg.layers[2].size());
}

TEST(SubgraphSamplerTest, DanglingFrontierStopsExpanding) {
  GraphStore g;
  g.AddEdge({1, 2, 1.0, 0});  // 2 has no out-edges
  SubgraphSampler sampler(&g);
  Xoshiro256 rng(6);
  const SampledSubgraph sg = sampler.Sample({1}, {{.fanout = 3},
                                                  {.fanout = 3}}, rng);
  EXPECT_EQ(sg.layers[1].size(), 3u);  // three copies of vertex 2
  EXPECT_TRUE(sg.layers[2].empty());
}

TEST(SubgraphSamplerTest, MetaPathAcrossRelations) {
  // Relation 0: user->live; relation 1: live->tag.
  GraphStore g(GraphStoreConfig{.num_relations = 2});
  g.AddEdge({1, 100, 1.0, 0});
  g.AddEdge({100, 7000, 1.0, 1});
  SubgraphSampler sampler(&g);
  Xoshiro256 rng(7);
  const SampledSubgraph sg = sampler.Sample(
      {1}, {{.fanout = 2, .edge_type = 0}, {.fanout = 2, .edge_type = 1}},
      rng);
  for (VertexId v : sg.layers[1]) EXPECT_EQ(v, 100u);
  for (VertexId v : sg.layers[2]) EXPECT_EQ(v, 7000u);
}

TEST(SubgraphSamplerTest, EmptySeedsAndNoHops) {
  GraphStore g;
  FillStarGraph(&g);
  SubgraphSampler sampler(&g);
  Xoshiro256 rng(8);
  const SampledSubgraph none = sampler.Sample({}, {{.fanout = 2}}, rng);
  EXPECT_TRUE(none.layers[1].empty());
  const SampledSubgraph zero_hops = sampler.Sample({1}, {}, rng);
  EXPECT_EQ(zero_hops.layers.size(), 1u);
  EXPECT_EQ(zero_hops.NumHops(), 0u);
}


}  // namespace
}  // namespace platod2gl
