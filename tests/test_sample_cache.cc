// Hot-vertex sampling cache: distribution equivalence with the samtree
// descent, version-based invalidation under dynamic updates, admission
// gating and capacity bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/samtree.h"
#include "obs/metrics.h"
#include "sampling/sample_cache.h"
#include "storage/graph_store.h"

namespace platod2gl {
namespace {

double ChiSquare(const std::vector<int>& hits,
                 const std::vector<double>& probs, int draws) {
  double chi = 0.0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const double expect = probs[i] * draws;
    if (expect < 1e-9) continue;
    const double d = hits[i] - expect;
    chi += d * d / expect;
  }
  return chi;
}

/// A GraphStore whose cache admits everything on the first miss, so tests
/// exercise the cached path directly.
GraphStoreConfig EagerCacheConfig() {
  GraphStoreConfig cfg;
  cfg.sample_cache.enabled = true;
  cfg.sample_cache.min_degree = 1;
  cfg.sample_cache.admit_after_misses = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Samtree version counter (the invalidation primitive)
// ---------------------------------------------------------------------------

TEST(SamtreeVersionTest, EveryMutationAdvances) {
  Samtree tree;
  std::uint64_t last = tree.version();
  EXPECT_GT(last, 0u);  // stamps start at 1

  tree.Insert(7, 1.0);
  EXPECT_NE(tree.version(), last);
  last = tree.version();

  tree.Update(7, 2.0);
  EXPECT_NE(tree.version(), last);
  last = tree.version();

  tree.Remove(7);
  EXPECT_NE(tree.version(), last);
}

TEST(SamtreeVersionTest, StampsAreUniqueAcrossTrees) {
  // A fresh tree must never revalidate a cache entry built against a
  // predecessor at the same map slot, so stamps are process-unique.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 16; ++i) {
    Samtree tree;
    EXPECT_TRUE(seen.insert(tree.version()).second) << "stamp reused";
    tree.Insert(1, 1.0);
    EXPECT_TRUE(seen.insert(tree.version()).second) << "stamp reused";
  }
}

TEST(SamtreeVersionTest, MoveAssignAdoptsSourceStamp) {
  Samtree a, b;
  a.Insert(1, 1.0);
  const std::uint64_t a_version = a.version();
  const std::uint64_t b_version = b.version();
  b = std::move(a);
  EXPECT_EQ(b.version(), a_version);  // content identity travels with it
  EXPECT_NE(b.version(), b_version);
  EXPECT_NE(a.version(), a_version);  // moved-from shell re-stamped
}

// ---------------------------------------------------------------------------
// Distribution equivalence (satellite 3a)
// ---------------------------------------------------------------------------

TEST(SampleCacheDistributionTest, CachedWeightedMatchesFts) {
  GraphStore g(EagerCacheConfig());
  Xoshiro256 rng(11);
  const std::size_t n = 150;
  std::vector<Weight> weights;
  for (VertexId d = 0; d < n; ++d) {
    const Weight w = 0.05 + rng.NextDouble();
    weights.push_back(w);
    g.AddEdge({1, 1000 + d, w, 0});
  }
  Weight total = 0.0;
  for (Weight w : weights) total += w;
  std::vector<double> probs;
  for (Weight w : weights) probs.push_back(w / total);

  const int draws = 300000;
  std::vector<int> hits(n, 0);
  std::vector<VertexId> out;
  for (int i = 0; i < draws; i += 50) {
    out.clear();
    ASSERT_TRUE(g.SampleNeighbors(1, 50, /*weighted=*/true, rng, &out, 0));
    for (VertexId v : out) ++hits[v - 1000];
  }

  // The draws must have come from the cached alias table, not the descent.
  ASSERT_NE(g.sample_cache(), nullptr);
  EXPECT_GT(g.sample_cache()->Stats().hits, 0u);
  // 149 dof: 99.9th percentile ~ 210; slack as in the FTS suite.
  EXPECT_LT(ChiSquare(hits, probs, draws), 230.0);
}

TEST(SampleCacheDistributionTest, CachedUniformIsUniform) {
  GraphStore g(EagerCacheConfig());
  Xoshiro256 rng(22);
  const std::size_t n = 128;
  for (VertexId d = 0; d < n; ++d) {
    g.AddEdge({1, 1000 + d, 0.05 + rng.NextDouble(), 0});  // weights ignored
  }
  const int draws = 256000;
  std::vector<int> hits(n, 0);
  std::vector<VertexId> out;
  for (int i = 0; i < draws; i += 64) {
    out.clear();
    ASSERT_TRUE(g.SampleNeighbors(1, 64, /*weighted=*/false, rng, &out, 0));
    for (VertexId v : out) ++hits[v - 1000];
  }
  EXPECT_GT(g.sample_cache()->Stats().hits, 0u);
  const std::vector<double> probs(n, 1.0 / static_cast<double>(n));
  // 127 dof: 99.9th percentile ~ 186.
  EXPECT_LT(ChiSquare(hits, probs, draws), 200.0);
}

// ---------------------------------------------------------------------------
// Invalidation under dynamic updates (satellite 3b)
// ---------------------------------------------------------------------------

TEST(SampleCacheInvalidationTest, InterleavedBatchUpdatesNeverServeStale) {
  GraphStore g(EagerCacheConfig());
  ThreadPool pool(4);
  Xoshiro256 rng(33);

  // Reference neighbourhood of the hot vertex, mirrored by hand.
  const VertexId hot = 1;
  std::set<VertexId> live;
  std::vector<EdgeUpdate> batch;
  for (VertexId d = 0; d < 200; ++d) {
    batch.push_back({UpdateKind::kInsert, {hot, 10000 + d, 1.0, 0}});
    live.insert(10000 + d);
  }
  g.ApplyBatch(batch, &pool);

  std::vector<VertexId> out;
  VertexId next_fresh = 20000;
  for (int round = 0; round < 60; ++round) {
    // Warm / re-warm the cache on the current neighbourhood.
    out.clear();
    ASSERT_TRUE(g.SampleNeighbors(hot, 100, /*weighted=*/true, rng, &out, 0));
    for (VertexId v : out) {
      ASSERT_TRUE(live.count(v)) << "stale neighbour " << v << " drawn";
    }

    // Delete a handful of live neighbours and insert fresh ones through
    // the latch-free batch path (which mutates samtrees directly).
    batch.clear();
    for (int i = 0; i < 5 && live.size() > 50; ++i) {
      const VertexId victim = *live.begin();
      batch.push_back({UpdateKind::kDelete, {hot, victim, 0.0, 0}});
      live.erase(live.begin());
    }
    for (int i = 0; i < 3; ++i) {
      batch.push_back({UpdateKind::kInsert, {hot, next_fresh, 1.0, 0}});
      live.insert(next_fresh++);
    }
    g.ApplyBatch(batch, &pool);

    // Every draw after the batch must reflect it: deleted neighbours may
    // never reappear, whatever mix of cached / descent paths serves it.
    for (int rep = 0; rep < 4; ++rep) {
      out.clear();
      ASSERT_TRUE(
          g.SampleNeighbors(hot, 50, /*weighted=*/true, rng, &out, 0));
      for (VertexId v : out) {
        ASSERT_TRUE(live.count(v)) << "stale neighbour " << v
                                   << " drawn after delete, round " << round;
      }
    }
  }

  // The interleaving must actually have exercised the invalidation path.
  const SampleCacheStats stats = g.sample_cache()->Stats();
  EXPECT_GT(stats.stale_hits, 0u);
  EXPECT_GT(stats.rebuilds, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(SampleCacheInvalidationTest, EmptiedSourceDropsCachedNeighborhood) {
  GraphStore g(EagerCacheConfig());
  Xoshiro256 rng(44);
  for (VertexId d = 0; d < 64; ++d) g.AddEdge({1, 100 + d, 1.0, 0});

  std::vector<VertexId> out;
  ASSERT_TRUE(g.SampleNeighbors(1, 32, true, rng, &out, 0));  // warms cache
  ASSERT_TRUE(g.SampleNeighbors(1, 32, true, rng, &out, 0));

  // Delete every edge of the source, then refill it with a disjoint
  // neighbourhood. The emptied samtree stays in the map and is replaced
  // by a fresh one when the first new edge lands: its unique stamp must
  // invalidate the old entry even though the vertex ID is reused.
  for (VertexId d = 0; d < 64; ++d) {
    ASSERT_TRUE(g.topology(0).RemoveEdge(1, 100 + d));
  }
  EXPECT_FALSE(g.SampleNeighbors(1, 32, true, rng, &out, 0));
  for (VertexId d = 0; d < 64; ++d) g.AddEdge({1, 900 + d, 1.0, 0});

  for (int rep = 0; rep < 8; ++rep) {
    out.clear();
    ASSERT_TRUE(g.SampleNeighbors(1, 32, true, rng, &out, 0));
    for (VertexId v : out) {
      ASSERT_GE(v, 900u) << "neighbour from the removed source drawn";
    }
  }
}

// ---------------------------------------------------------------------------
// Admission and capacity
// ---------------------------------------------------------------------------

TEST(SampleCacheAdmissionTest, ColdVerticesStayOnTheDescent) {
  GraphStoreConfig cfg;
  cfg.sample_cache.min_degree = 100;  // every vertex below the gate
  cfg.sample_cache.admit_after_misses = 1;
  GraphStore g(cfg);
  Xoshiro256 rng(55);
  for (VertexId s = 1; s <= 20; ++s) {
    for (VertexId d = 0; d < 5; ++d) g.AddEdge({s, s * 100 + d, 1.0, 0});
  }
  std::vector<VertexId> out;
  for (int rep = 0; rep < 50; ++rep) {
    for (VertexId s = 1; s <= 20; ++s) {
      out.clear();
      ASSERT_TRUE(g.SampleNeighbors(s, 10, true, rng, &out, 0));
      EXPECT_EQ(out.size(), 10u);
    }
  }
  const SampleCacheStats stats = g.sample_cache()->Stats();
  EXPECT_EQ(g.sample_cache()->size(), 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.cold_rejects, 0u);
}

TEST(SampleCacheAdmissionTest, TrafficGateDelaysAdmission) {
  GraphStoreConfig cfg;
  cfg.sample_cache.min_degree = 1;
  cfg.sample_cache.admit_after_misses = 3;
  GraphStore g(cfg);
  Xoshiro256 rng(66);
  for (VertexId d = 0; d < 32; ++d) g.AddEdge({1, 100 + d, 1.0, 0});

  std::vector<VertexId> out;
  g.SampleNeighbors(1, 8, true, rng, &out, 0);  // miss 1
  g.SampleNeighbors(1, 8, true, rng, &out, 0);  // miss 2
  EXPECT_EQ(g.sample_cache()->size(), 0u);
  g.SampleNeighbors(1, 8, true, rng, &out, 0);  // miss 3: admitted
  EXPECT_EQ(g.sample_cache()->size(), 1u);
  EXPECT_EQ(g.sample_cache()->Stats().admissions, 1u);
}

TEST(SampleCacheAdmissionTest, CapacityBoundHoldsUnderPressure) {
  SampleCacheConfig cfg;
  cfg.capacity = 8;
  cfg.num_shards = 1;
  cfg.min_degree = 1;
  cfg.admit_after_misses = 1;
  SampleCache cache(cfg);
  Xoshiro256 rng(77);

  std::vector<Samtree> trees(50);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (VertexId d = 0; d < 16; ++d) {
      trees[i].Insert(1000 * i + d, 1.0);
    }
  }
  std::vector<VertexId> out;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < trees.size(); ++i) {
      out.clear();
      cache.Sample(i, 0, trees[i], true, 4, rng, &out);
    }
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.Stats().evictions, 0u);
  EXPECT_GT(cache.MemoryUsage(), 0u);
}

TEST(SampleCacheAdmissionTest, DisabledCacheFallsBackEverywhere) {
  GraphStoreConfig cfg;
  cfg.sample_cache.enabled = false;
  GraphStore g(cfg);
  EXPECT_EQ(g.sample_cache(), nullptr);
  Xoshiro256 rng(88);
  for (VertexId d = 0; d < 300; ++d) g.AddEdge({1, 100 + d, 1.0, 0});
  std::vector<VertexId> out;
  ASSERT_TRUE(g.SampleNeighbors(1, 20, true, rng, &out, 0));
  EXPECT_EQ(out.size(), 20u);
}

TEST(SampleCacheAdmissionTest, RelationsDoNotAlias) {
  GraphStoreConfig cfg = EagerCacheConfig();
  cfg.num_relations = 2;
  GraphStore g(cfg);
  Xoshiro256 rng(99);
  for (VertexId d = 0; d < 32; ++d) {
    g.AddEdge({1, 100 + d, 1.0, 0});
    g.AddEdge({1, 500 + d, 1.0, 1});
  }
  std::vector<VertexId> out;
  for (int rep = 0; rep < 8; ++rep) {
    out.clear();
    ASSERT_TRUE(g.SampleNeighbors(1, 16, true, rng, &out, 0));
    for (VertexId v : out) EXPECT_LT(v, 500u);
    out.clear();
    ASSERT_TRUE(g.SampleNeighbors(1, 16, true, rng, &out, 1));
    for (VertexId v : out) EXPECT_GE(v, 500u);
  }
}

// ---------------------------------------------------------------------------
// Stats window vs. registry series
// ---------------------------------------------------------------------------

TEST(SampleCacheStatsTest, ResetOpensAWindowWhileSeriesKeepCounting) {
  GraphStore g(EagerCacheConfig());
  obs::MetricRegistry reg;
  g.sample_cache()->RegisterWith(&reg, {});
  for (VertexId d = 0; d < 16; ++d) {
    g.AddEdge({1, 100 + d, 1.0, 0});
    g.AddEdge({2, 200 + d, 1.0, 0});
  }
  Xoshiro256 rng(111);
  std::vector<VertexId> out;
  g.SampleNeighbors(1, 4, true, rng, &out, 0);  // miss, admitted
  g.SampleNeighbors(1, 4, true, rng, &out, 0);  // hit
  g.sample_cache()->ResetStats();
  EXPECT_EQ(g.sample_cache()->Stats().hits, 0u);
  EXPECT_EQ(g.sample_cache()->Stats().misses, 0u);

  g.SampleNeighbors(2, 4, true, rng, &out, 0);  // miss, admitted
  for (int i = 0; i < 3; ++i) g.SampleNeighbors(1, 4, true, rng, &out, 0);
  const SampleCacheStats window = g.sample_cache()->Stats();
  EXPECT_EQ(window.hits, 3u);
  EXPECT_EQ(window.misses, 1u);
  EXPECT_EQ(window.admissions, 1u);

  // The exported series count from construction: a reset never moves them.
  const obs::RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_sample_cache_hits"), 4u);
  EXPECT_EQ(snap.Value("pd2gl_sample_cache_misses"), 2u);
  EXPECT_EQ(snap.Value("pd2gl_sample_cache_admissions"), 2u);
}

}  // namespace
}  // namespace platod2gl
