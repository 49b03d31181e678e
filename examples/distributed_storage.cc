// Distributed storage scenario: the multi-server deployment of Figure 1,
// simulated in-process (see DESIGN.md, substitutions).
//
// A GraphCluster partitions the topology hash-by-source across shards,
// routes dynamic update batches and batched sampling RPCs, and reports
// load balance plus virtual network cost — the operational concerns the
// production deployment is built around.
#include <cstdio>
#include <vector>

#include "platod2gl.h"

using namespace platod2gl;

int main() {
  std::printf("Distributed graph storage simulation\n");
  std::printf("====================================\n\n");

  GraphCluster cluster(ClusterConfig{
      .num_shards = 8,
      .rpc_latency_us = 150,  // virtual per-RPC cost, accounted not slept
      .num_client_threads = 4,
  });

  // Ingest an RMAT social graph in dynamic batches.
  RmatParams p;
  p.scale = 15;
  p.num_edges = 500000;
  p.seed = 5;
  std::vector<Edge> edges = GenerateRmat(p);
  MakeBidirected(&edges);
  DedupEdges(&edges);

  Timer build;
  std::vector<EdgeUpdate> batch;
  for (const Edge& e : edges) {
    batch.push_back({UpdateKind::kInsert, e});
    if (batch.size() == 65536) {
      cluster.ApplyBatch(batch);
      batch.clear();
    }
  }
  cluster.ApplyBatch(batch);
  std::printf("ingested %zu edges across %zu shards in %.2f s\n",
              cluster.NumEdges(), cluster.num_shards(),
              build.ElapsedSeconds());

  // Hash-by-source keeps shards balanced without any re-partitioning.
  std::printf("\nper-shard load:\n");
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    std::printf("  shard %zu: %9zu edges, %8llu updates logged\n", s,
                cluster.shard(s).store().NumEdges(),
                (unsigned long long)cluster.shard(s).wal_seq());
  }

  // Batched cross-shard sampling: one RPC per shard per batch instead of
  // one per seed.
  std::vector<VertexId> seeds;
  Xoshiro256 rng(11);
  for (int i = 0; i < 4096; ++i) seeds.push_back(rng.NextUint64(1u << 15));
  const ClusterStats before = cluster.stats();
  Timer t;
  const NeighborBatch nb =
      cluster.SampleNeighbors(seeds, /*fanout=*/25, /*weighted=*/true,
                              /*seed=*/17);
  const ClusterStats after = cluster.stats();
  std::printf("\nsampled 25 neighbours for %zu seeds in %.1f ms compute "
              "+ %llu us virtual network (%llu RPCs for %zu seeds)\n",
              nb.NumSeeds(), t.ElapsedMillis(),
              (unsigned long long)(after.virtual_network_us -
                                   before.virtual_network_us),
              (unsigned long long)(after.rpcs - before.rpcs), seeds.size());

  // A per-seed (unbatched) design would have paid one RPC per seed:
  std::printf("an unbatched design would have paid %zu RPCs = %zu us of "
              "network instead\n",
              seeds.size(), seeds.size() * 150);

  std::printf("\ndone.\n");
  return 0;
}
