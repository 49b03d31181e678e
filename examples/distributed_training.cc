// Distributed training scenario: the full deployment of the paper's
// Figure 1 — a training server drives GraphSAGE against remote graph
// servers.
//
// Topology and vertex features live sharded across a GraphCluster; the
// trainer issues one batched sampling RPC round per hop
// (RemoteSubgraphSampler), then fetches the features of every sampled
// layer in ONE GatherMany round — one RPC per shard, not one per vertex.
// The run reports model quality alongside the operational numbers a
// deployment watches: RPC counts, bytes on the wire and per-RPC latency
// percentiles.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "platod2gl.h"

using namespace platod2gl;

namespace {

constexpr std::size_t kCommunities = 4;
constexpr std::size_t kSize = 250;
constexpr std::size_t kDim = 8;

/// One gather round for every layer of a sampled subgraph: one work item
/// per layer, each densified into a [layer x kDim] tensor.
std::vector<Tensor> GatherLayers(GraphCluster& cluster,
                                 const SampledSubgraph& sg) {
  std::vector<GatherWorkItem> work;
  for (const auto& layer : sg.layers) work.push_back({.ids = &layer});
  const MultiGatherReport rows = cluster.GatherMany(work);
  const std::size_t cols = std::min<std::size_t>(rows.dim, kDim);
  std::vector<Tensor> features;
  for (std::size_t l = 0; l < sg.layers.size(); ++l) {
    Tensor t(sg.layers[l].size(), kDim);
    const std::vector<float>& f = rows.reports[l].features;
    for (std::size_t row = 0; row < sg.layers[l].size(); ++row) {
      std::copy(f.begin() + row * rows.dim, f.begin() + row * rows.dim + cols,
                t.row(row));
    }
    features.push_back(std::move(t));
  }
  return features;
}

}  // namespace

int main() {
  std::printf("Distributed GNN training (training server <-> graph "
              "servers)\n");
  std::printf("==========================================================="
              "\n\n");

  // Graph servers: 8 shards holding a community graph.
  GraphCluster cluster(ClusterConfig{.num_shards = 8,
                                     .rpc_latency_us = 150,
                                     .num_client_threads = 4});
  Xoshiro256 rng(3);
  std::vector<VertexId> all_vertices, train_seeds, test_seeds;
  std::vector<EdgeUpdate> bootstrap;
  for (VertexId v = 0; v < kCommunities * kSize; ++v) {
    const std::size_t comm = v / kSize;
    for (int k = 0; k < 8; ++k) {
      const VertexId u = comm * kSize + rng.NextUint64(kSize);
      if (u != v) {
        bootstrap.push_back({UpdateKind::kInsert, Edge{v, u, 1.0, 0}});
      }
    }
    std::vector<float> f(kDim);
    for (auto& x : f) x = static_cast<float>(rng.NextDouble() * 0.4 - 0.2);
    f[comm % kDim] += 1.2f;
    cluster.shard(cluster.partitioner().ShardOf(v))
        .store()
        .attributes()
        .SetFeatures(v, std::move(f));
    all_vertices.push_back(v);
    (v % 5 == 0 ? test_seeds : train_seeds).push_back(v);
  }
  cluster.ApplyBatch(bootstrap);
  std::printf("graph servers hold %zu edges across %zu shards\n\n",
              cluster.NumEdges(), cluster.num_shards());

  // Training server: GraphSAGE fed by remote sampling + remote features.
  GraphSageModel model(
      GraphSageConfig{.in_dim = kDim, .hidden_dim = 16,
                      .num_classes = kCommunities},
      7);
  RemoteSubgraphSampler sampler(&cluster);

  auto run_batch = [&](const std::vector<VertexId>& seeds,
                       std::uint64_t round, bool train) {
    const SampledSubgraph sg = sampler.Sample(
        seeds, {{.fanout = 8}, {.fanout = 8}}, /*seed=*/round);
    GraphSageModel::Inputs in;
    in.sg = &sg;
    in.features = GatherLayers(cluster, sg);
    std::vector<std::int64_t> labels;
    for (VertexId v : seeds) {
      labels.push_back(static_cast<std::int64_t>(v / kSize));
    }
    return train ? model.TrainStep(in, labels, 0.01f)
                 : model.Evaluate(in, labels);
  };

  Xoshiro256 pick(11);
  const auto before = run_batch(test_seeds, 0, /*train=*/false);
  for (std::uint64_t step = 1; step <= 60; ++step) {
    std::vector<VertexId> seeds;
    for (int i = 0; i < 64; ++i) {
      seeds.push_back(train_seeds[pick.NextUint64(train_seeds.size())]);
    }
    run_batch(seeds, step, /*train=*/true);
  }
  const auto after = run_batch(test_seeds, 61, /*train=*/false);

  std::printf("test accuracy: %.1f%% -> %.1f%% after 60 remote "
              "minibatches\n\n",
              100.0 * before.accuracy, 100.0 * after.accuracy);

  // The operational view.
  const ClusterStats& s = cluster.stats();
  std::printf("RPCs: %llu (%.1f per minibatch; one round per hop plus one "
              "feature round, not one per vertex)\n",
              (unsigned long long)s.rpcs, s.rpcs / 62.0);
  std::printf("wire traffic:  %s sent, %s received\n",
              HumanBytes(s.bytes_sent).c_str(),
              HumanBytes(s.bytes_received).c_str());
  std::printf("virtual network time: %.1f ms; per-RPC compute p50/p99: "
              "%.0f/%.0f us\n",
              s.virtual_network_us / 1e3,
              cluster.rpc_latency().PercentileMicros(50),
              cluster.rpc_latency().PercentileMicros(99));
  std::printf("\ndone.\n");
  return 0;
}
