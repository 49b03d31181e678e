// Distributed-simulation tests: partitioners, shards and the cluster
// facade (DESIGN.md substitution for the paper's 74-server deployment).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "dist/cluster.h"
#include "dist/partitioner.h"
#include "dist/shard.h"
#include "gen/generators.h"

namespace platod2gl {
namespace {

TEST(PartitionerTest, HashBySourceIsStableAndInRange) {
  HashBySourcePartitioner p(8);
  for (VertexId v = 0; v < 1000; ++v) {
    const std::size_t s = p.ShardOf(v);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, p.ShardOf(v)) << "must be deterministic";
  }
}

TEST(PartitionerTest, HashBySourceBalancesLoad) {
  HashBySourcePartitioner p(8);
  std::vector<int> counts(8, 0);
  for (VertexId v = 0; v < 80000; ++v) ++counts[p.ShardOf(v)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 800);
}

TEST(PartitionerTest, RangePartitionerContiguous) {
  RangePartitioner p(4, 1000);
  EXPECT_EQ(p.ShardOf(0), 0u);
  EXPECT_LE(p.ShardOf(999), 3u);
  EXPECT_EQ(p.ShardOf(5000), 3u);  // out-of-universe clamps to last shard
  // Monotone.
  std::size_t prev = 0;
  for (VertexId v = 0; v < 1000; v += 10) {
    EXPECT_GE(p.ShardOf(v), prev);
    prev = p.ShardOf(v);
  }
}

TEST(ShardTest, CountsRequests) {
  GraphShard shard;
  shard.ApplyBatch(
      std::vector<EdgeUpdate>{{UpdateKind::kInsert, Edge{1, 2, 1.0, 0}}});
  Xoshiro256 rng(1);
  std::vector<VertexId> out;
  shard.SampleNeighbors(1, 5, true, rng, &out);
  EXPECT_EQ(shard.wal_seq(), 1u);
  EXPECT_EQ(out.size(), 5u);
}

TEST(ClusterTest, RoutesUpdatesToOwners) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  for (VertexId s = 1; s <= 100; ++s) {
    cluster.Apply({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
  }
  EXPECT_EQ(cluster.NumEdges(), 100u);
  // Each edge lives on exactly the shard its source hashes to.
  for (VertexId s = 1; s <= 100; ++s) {
    const std::size_t owner = cluster.partitioner().ShardOf(s);
    EXPECT_EQ(cluster.shard(owner).store().Degree(s), 1u);
    EXPECT_EQ(cluster.Degree(s), 1u);
    for (std::size_t other = 0; other < cluster.num_shards(); ++other) {
      if (other == owner) continue;
      EXPECT_EQ(cluster.shard(other).store().Degree(s), 0u);
    }
  }
}

TEST(ClusterTest, ApplyBatchMatchesSequentialRouting) {
  RmatParams p;
  p.scale = 10;
  p.num_edges = 5000;
  const std::vector<Edge> edges = GenerateRmat(p);

  GraphCluster a(ClusterConfig{.num_shards = 4});
  GraphCluster b(ClusterConfig{.num_shards = 4});
  std::vector<EdgeUpdate> batch;
  for (const Edge& e : edges) {
    a.Apply({UpdateKind::kInsert, e});
    batch.push_back({UpdateKind::kInsert, e});
  }
  b.ApplyBatch(batch);
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a.shard(s).store().NumEdges(), b.shard(s).store().NumEdges());
  }
}

TEST(ClusterTest, BatchedSamplingPreservesSeedOrder) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  // Distinguishable neighbourhoods: seed s only links to s * 10.
  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 50; ++s) {
    cluster.Apply({UpdateKind::kInsert, Edge{s, s * 10, 1.0, 0}});
    seeds.push_back(s);
  }
  const NeighborBatch batch =
      cluster.SampleNeighbors(seeds, 4, /*weighted=*/true, /*seed=*/9);
  ASSERT_EQ(batch.NumSeeds(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = batch.offsets[i]; j < batch.offsets[i + 1]; ++j) {
      EXPECT_EQ(batch.neighbors[j], seeds[i] * 10);
    }
  }
}

TEST(ClusterTest, DanglingSeedsYieldEmptyRanges) {
  GraphCluster cluster(ClusterConfig{.num_shards = 2});
  cluster.Apply({UpdateKind::kInsert, Edge{1, 2, 1.0, 0}});
  const NeighborBatch batch =
      cluster.SampleNeighbors({1, 777, 1}, 3, true, 1);
  ASSERT_EQ(batch.NumSeeds(), 3u);
  EXPECT_EQ(batch.offsets[1] - batch.offsets[0], 3u);
  EXPECT_EQ(batch.offsets[2] - batch.offsets[1], 0u);  // dangling seed
  EXPECT_EQ(batch.offsets[3] - batch.offsets[2], 3u);
}

TEST(ClusterTest, VirtualNetworkAccounting) {
  GraphCluster cluster(
      ClusterConfig{.num_shards = 4, .rpc_latency_us = 100});
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 40; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1, 1.0, 0}});
  }
  cluster.ApplyBatch(batch);
  // Batched: at most one RPC per shard, far less than one per edge.
  EXPECT_LE(cluster.stats().rpcs, 4u);
  EXPECT_EQ(cluster.stats().virtual_network_us,
            cluster.stats().rpcs * 100u);
}

TEST(ClusterTest, LoadImbalanceNearOneOnUniformKeys) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 40000; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1, 1.0, 0}});
  }
  cluster.ApplyBatch(batch);
  std::vector<std::size_t> edges;
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    edges.push_back(cluster.shard(s).store().NumEdges());
  }
  const auto [lo, hi] = std::minmax_element(edges.begin(), edges.end());
  ASSERT_GT(*lo, 0u);
  EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 1.2);
}

// ---------------------------------------------------------------------------
// Write-path validation: the cluster refuses an update its stores cannot
// hold before any WAL logs it, and applies the rest of the batch.
// ---------------------------------------------------------------------------

constexpr Weight kNaN = std::numeric_limits<Weight>::quiet_NaN();
constexpr Weight kInf = std::numeric_limits<Weight>::infinity();

std::uint64_t LoggedUpdates(const GraphCluster& cluster) {
  std::uint64_t logged = 0;
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    logged += cluster.shard(s).wal_seq();
  }
  return logged;
}

TEST(ClusterWriteValidationTest, OutOfRangeTypeAloneIsNeverLogged) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});  // one relation
  const Edge bad{1, 2, 1.0, /*type=*/3};
  const std::size_t s = cluster.partitioner().ShardOf(bad.src);
  EXPECT_EQ(cluster.Apply({UpdateKind::kInsert, bad}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoggedUpdates(cluster), 0u);

  // The hinted-handoff path of a crashed shard refuses it too: recovery
  // replays the WAL, and one logged bad entry would fail every replay.
  cluster.CrashShard(s);
  EXPECT_EQ(cluster.Apply({UpdateKind::kInsert, bad}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(cluster.Apply({UpdateKind::kInsert, Edge{1, 3, 1.0, 0}}).ok());
  EXPECT_EQ(cluster.shard(s).wal_seq(), 1u);
  ASSERT_TRUE(cluster.RecoverShard(s).ok());
  EXPECT_EQ(cluster.NumEdges(), 1u);
  EXPECT_TRUE(cluster.shard(s).store().HasEdge(1, 3));
}

TEST(ClusterWriteValidationTest, OutOfRangeTypeInAMultiShardBatchSkipsOnlyIt) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  std::vector<EdgeUpdate> batch;
  std::set<std::size_t> touched;
  for (VertexId v = 1; v <= 64; ++v) {
    batch.push_back({UpdateKind::kInsert, Edge{v, v + 1, 1.0, 0}});
    touched.insert(cluster.partitioner().ShardOf(v));
  }
  ASSERT_GT(touched.size(), 1u);
  batch.insert(batch.begin() + 32,
               EdgeUpdate{UpdateKind::kInsert, Edge{7, 9, 1.0, /*type=*/3}});
  EXPECT_EQ(cluster.ApplyBatch(batch).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster.NumEdges(), 64u);
  EXPECT_EQ(LoggedUpdates(cluster), 64u);
  EXPECT_EQ(cluster.Degree(7), 1u) << "7->8 only; 7->9 was refused";
}

TEST(ClusterWriteValidationTest, NonFiniteAndNegativeWeightsAreRefused) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  ASSERT_TRUE(cluster.Apply({UpdateKind::kInsert, Edge{1, 2, 1.0, 0}}).ok());
  for (const Weight w : {kNaN, kInf, -5.0}) {
    EXPECT_EQ(cluster.Apply({UpdateKind::kInsert, Edge{1, 3, w, 0}}).code(),
              StatusCode::kInvalidArgument)
        << w;
    EXPECT_EQ(
        cluster.Apply({UpdateKind::kInPlaceUpdate, Edge{1, 2, w, 0}}).code(),
        StatusCode::kInvalidArgument)
        << w;
  }
  EXPECT_EQ(LoggedUpdates(cluster), 1u);
  EXPECT_EQ(cluster.NumEdges(), 1u);
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    std::string err;
    EXPECT_TRUE(cluster.shard(s).store().topology(0).CheckAllInvariants(&err))
        << "shard " << s << ": " << err;
  }
  // A delete never reads its weight.
  EXPECT_TRUE(cluster.Apply({UpdateKind::kDelete, Edge{1, 2, kNaN, 0}}).ok());
  EXPECT_EQ(cluster.NumEdges(), 0u);
}

TEST(ClusterWriteValidationTest, InvalidVertexEndpointsAreRefused) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  EXPECT_EQ(
      cluster.Apply({UpdateKind::kInsert, Edge{kInvalidVertex, 2, 1.0, 0}})
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      cluster.Apply({UpdateKind::kInsert, Edge{1, kInvalidVertex, 1.0, 0}})
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(LoggedUpdates(cluster), 0u);
  EXPECT_EQ(cluster.NumEdges(), 0u);
}

}  // namespace
}  // namespace platod2gl
