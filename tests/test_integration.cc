// Integration tests: the full PlatoD2GL pipeline — dataset generation,
// concurrent batched graph building, sampling operators, distributed
// simulation and GNN training — wired together as a production deployment
// would be (paper Figures 1-2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "dist/cluster.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/subgraph_sampler.h"
#include "storage/graph_store.h"

namespace platod2gl {
namespace {

TEST(IntegrationTest, BuildSampleTrainOnSyntheticGraph) {
  // 1. Build a skewed graph through the concurrent batch path.
  RmatParams p;
  p.scale = 12;
  p.num_edges = 60000;
  std::vector<Edge> edges = GenerateRmat(p);
  MakeBidirected(&edges);

  GraphStore graph;
  ThreadPool pool(4);
  std::vector<EdgeUpdate> batch;
  for (const Edge& e : edges) batch.push_back({UpdateKind::kInsert, e});
  graph.ApplyBatch(batch, &pool);
  EXPECT_GT(graph.NumEdges(), 50000u);

  // 2. Attach features/labels and train a model end-to-end.
  Xoshiro256 rng(1);
  std::vector<VertexId> vertices;
  graph.topology(0).ForEachSource(
      [&](VertexId v, const Samtree&) { vertices.push_back(v); });
  for (VertexId v : vertices) {
    std::vector<float> f(8, 0.0f);
    f[v % 8] = 1.0f;
    graph.attributes().SetFeatures(v, std::move(f));
    graph.attributes().SetLabel(v, static_cast<std::int64_t>(v % 4));
  }

  GraphSageModel model(
      GraphSageConfig{.in_dim = 8, .hidden_dim = 16, .num_classes = 4}, 2);
  Trainer trainer(&graph, &model, TrainerConfig{.batch_size = 64,
                                                .learning_rate = 0.01f});
  for (int step = 0; step < 10; ++step) {
    const auto r = trainer.TrainStepSampled(rng);
    ASSERT_TRUE(std::isfinite(r.loss)) << "step " << step;
  }
}

TEST(IntegrationTest, DynamicUpdatesVisibleToSampling) {
  GraphStore graph;
  graph.AddEdge({1, 100, 1.0, 0});
  NeighborSampler sampler(&graph);
  Xoshiro256 rng(2);

  NeighborBatch b1 = sampler.Sample({1}, {.fanout = 20}, rng);
  for (VertexId v : b1.neighbors) EXPECT_EQ(v, 100u);

  // A heavy new edge dominates subsequent samples instantly — the
  // freshness property a dynamic store exists for.
  graph.AddEdge({1, 200, 1000.0, 0});
  NeighborBatch b2 = sampler.Sample({1}, {.fanout = 2000}, rng);
  int fresh = 0;
  for (VertexId v : b2.neighbors) fresh += (v == 200);
  EXPECT_GT(fresh, 1800);

  // Deleting it removes it from the distribution entirely.
  graph.topology(0).RemoveEdge(1, 200);
  NeighborBatch b3 = sampler.Sample({1}, {.fanout = 100}, rng);
  for (VertexId v : b3.neighbors) EXPECT_EQ(v, 100u);
}

TEST(IntegrationTest, HeterogeneousWeChatMiniPipeline) {
  const Dataset ds = MakeWeChatMini();
  GraphStore graph(GraphStoreConfig{.num_relations = ds.num_relations});
  // Build only a slice to keep this test fast.
  const std::size_t slice = std::min<std::size_t>(ds.edges.size(), 200000);
  for (std::size_t i = 0; i < slice; ++i) graph.AddEdge(ds.edges[i]);
  EXPECT_GT(graph.NumEdges(), 0u);

  // Meta-path User-Live -> Live-Live across relations.
  std::vector<VertexId> users;
  graph.topology(kUserLive).ForEachSource([&](VertexId v, const Samtree& t) {
    if (users.size() < 32 && !t.empty()) users.push_back(v);
  });
  ASSERT_FALSE(users.empty());
  SubgraphSampler sampler(&graph);
  Xoshiro256 rng(3);
  const SampledSubgraph sg = sampler.Sample(
      users,
      {{.fanout = 5, .edge_type = kUserLive},
       {.fanout = 3, .edge_type = kLiveLive}},
      rng);
  EXPECT_EQ(sg.layers.size(), 3u);
  EXPECT_GT(sg.layers[1].size(), 0u);
}

TEST(IntegrationTest, ClusterEndToEndWithUpdateStream) {
  // Distributed build + dynamic update stream + sampling, on 4 shards.
  UniformParams up;
  up.num_vertices = 2000;
  up.num_edges = 30000;
  const std::vector<Edge> base = GenerateUniform(up);

  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  std::vector<EdgeUpdate> build;
  for (const Edge& e : base) build.push_back({UpdateKind::kInsert, e});
  cluster.ApplyBatch(build);
  const std::size_t built = cluster.NumEdges();
  EXPECT_GT(built, 25000u);

  UpdateStreamParams sp;
  sp.num_ops = 5000;
  sp.insert_fraction = 0.5;
  sp.update_fraction = 0.3;
  cluster.ApplyBatch(MakeUpdateStream(base, sp));

  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 100; ++v) seeds.push_back(v);
  const NeighborBatch nb = cluster.SampleNeighbors(seeds, 10, true, 4);
  EXPECT_EQ(nb.NumSeeds(), 100u);
  std::vector<std::size_t> edges;
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    edges.push_back(cluster.shard(s).store().NumEdges());
  }
  const auto [lo, hi] = std::minmax_element(edges.begin(), edges.end());
  ASSERT_GT(*lo, 0u);
  EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 1.5);
}

TEST(IntegrationTest, SamtreeInvariantsSurviveFullDatasetBuild) {
  // Build ogbn-mini's first 300k edges with small-capacity trees and
  // verify every tree's invariants — the heaviest structural shakedown.
  Dataset ds = MakeOgbnMini();
  GraphStoreConfig cfg;
  cfg.samtree.node_capacity = 16;
  GraphStore graph(cfg);
  const std::size_t slice = std::min<std::size_t>(ds.edges.size(), 300000);
  for (std::size_t i = 0; i < slice; ++i) graph.AddEdge(ds.edges[i]);

  std::string err;
  std::size_t trees = 0;
  graph.topology(0).ForEachSource(
      [&](VertexId, const Samtree&) { ++trees; });
  EXPECT_GT(trees, 1000u);
  EXPECT_TRUE(graph.topology(0).CheckAllInvariants(&err)) << err;
}

}  // namespace
}  // namespace platod2gl
