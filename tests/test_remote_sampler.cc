// RemoteSubgraphSampler tests.
#include <gtest/gtest.h>

#include <vector>

#include "dist/remote_sampler.h"

namespace platod2gl {
namespace {

TEST(RemoteSamplerTest, MatchesLocalSemantics) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  // Distinguishable two-hop chains: s -> s*10 -> s*100.
  std::vector<VertexId> seeds;
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 40; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s * 100, 1.0, 0}});
    batch.push_back(
        {UpdateKind::kInsert, Edge{s * 100, s * 100 + 7, 1.0, 0}});
    seeds.push_back(s);
  }
  cluster.ApplyBatch(batch);

  RemoteSubgraphSampler sampler(&cluster);
  const SampledSubgraph sg =
      sampler.Sample(seeds, {{.fanout = 3}, {.fanout = 2}}, /*seed=*/5);

  ASSERT_EQ(sg.layers.size(), 3u);
  ASSERT_EQ(sg.parents.size(), 2u);
  EXPECT_EQ(sg.layers[1].size(), seeds.size() * 3);
  // Every hop-1 vertex is its parent's unique neighbour.
  for (std::size_t j = 0; j < sg.layers[1].size(); ++j) {
    EXPECT_EQ(sg.layers[1][j], sg.layers[0][sg.parents[0][j]] * 100);
  }
  for (std::size_t j = 0; j < sg.layers[2].size(); ++j) {
    EXPECT_EQ(sg.layers[2][j], sg.layers[1][sg.parents[1][j]] + 7);
  }
}

TEST(RemoteSamplerTest, OneRpcRoundPerHopPerShard) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  std::vector<EdgeUpdate> batch;
  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 200; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1, 1.0, 0}});
    seeds.push_back(s);
  }
  cluster.ApplyBatch(batch);
  const std::uint64_t rpcs_before = cluster.stats().rpcs;

  RemoteSubgraphSampler sampler(&cluster);
  sampler.Sample(seeds, {{.fanout = 5}, {.fanout = 5}}, 9);

  // 2 hops x at most 4 shards = at most 8 RPCs, regardless of the 200
  // seeds and the 1000-vertex hop-1 frontier.
  EXPECT_LE(cluster.stats().rpcs - rpcs_before, 8u);
}

TEST(RemoteSamplerTest, DanglingFrontier) {
  GraphCluster cluster(ClusterConfig{.num_shards = 2});
  cluster.Apply({UpdateKind::kInsert, Edge{1, 2, 1.0, 0}});  // 2 is a sink
  RemoteSubgraphSampler sampler(&cluster);
  const SampledSubgraph sg =
      sampler.Sample({1}, {{.fanout = 2}, {.fanout = 2}}, 3);
  EXPECT_EQ(sg.layers[1].size(), 2u);
  EXPECT_TRUE(sg.layers[2].empty());
}

}  // namespace
}  // namespace platod2gl
