// Latch-free batch apply tests: TopologyStore::ApplyBatch, the PALM-style
// path, must be semantically identical to sequential application through
// TopologyStore::Apply (paper Section VI-B / Appendix B).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gen/generators.h"
#include "storage/topology_store.h"

namespace platod2gl {
namespace {

std::map<VertexId, std::map<VertexId, Weight>> Snapshot(
    const TopologyStore& store) {
  std::map<VertexId, std::map<VertexId, Weight>> snap;
  store.ForEachSource([&](VertexId s, const Samtree& tree) {
    for (const auto& [d, w] : tree.Neighbors()) snap[s][d] = w;
  });
  return snap;
}

void ExpectSameContents(const TopologyStore& a, const TopologyStore& b) {
  const auto sa = Snapshot(a);
  const auto sb = Snapshot(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (const auto& [s, nbrs] : sa) {
    auto it = sb.find(s);
    ASSERT_NE(it, sb.end()) << "source " << s;
    ASSERT_EQ(nbrs.size(), it->second.size()) << "source " << s;
    for (const auto& [d, w] : nbrs) {
      auto jt = it->second.find(d);
      ASSERT_NE(jt, it->second.end()) << s << "->" << d;
      ASSERT_NEAR(w, jt->second, 1e-9) << s << "->" << d;
    }
  }
}

std::vector<EdgeUpdate> RandomBatch(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<EdgeUpdate> batch;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = rng.NextDouble();
    EdgeUpdate u;
    u.edge = Edge{rng.NextUint64(64) + 1, rng.NextUint64(256) + 1,
                  0.1 + rng.NextDouble(), 0};
    u.kind = r < 0.7 ? UpdateKind::kInsert
                     : (r < 0.85 ? UpdateKind::kInPlaceUpdate
                                 : UpdateKind::kDelete);
    batch.push_back(u);
  }
  return batch;
}

TEST(BatchUpdaterTest, EmptyBatchIsNoop) {
  TopologyStore store;
  ThreadPool pool(4);
  store.ApplyBatch({}, &pool);
  EXPECT_EQ(store.NumEdges(), 0u);
  EXPECT_EQ(store.NumSources(), 0u);
}

TEST(BatchUpdaterTest, SingleSourceBatch) {
  TopologyStore store;
  ThreadPool pool(4);
  std::vector<EdgeUpdate> batch;
  for (VertexId d = 1; d <= 100; ++d) {
    batch.push_back({UpdateKind::kInsert, Edge{7, d, 1.0, 0}});
  }
  store.ApplyBatch(batch, &pool);
  EXPECT_EQ(store.Degree(7), 100u);
  EXPECT_EQ(store.NumEdges(), 100u);
}

TEST(BatchUpdaterTest, PerEdgeOrderPreservedWithinBatch) {
  // Insert then delete the same edge in one batch: it must end absent;
  // delete-then-insert must end present. The stable sort keeps order.
  TopologyStore store;
  ThreadPool pool(4);
  store.AddEdge(1, 5, 1.0);
  std::vector<EdgeUpdate> batch = {
      {UpdateKind::kInsert, Edge{2, 9, 1.0, 0}},
      {UpdateKind::kDelete, Edge{2, 9, 0.0, 0}},
      {UpdateKind::kDelete, Edge{1, 5, 0.0, 0}},
      {UpdateKind::kInsert, Edge{1, 5, 3.0, 0}},
  };
  store.ApplyBatch(batch, &pool);
  EXPECT_FALSE(store.HasEdge(2, 9));
  ASSERT_TRUE(store.HasEdge(1, 5));
  EXPECT_NEAR(*store.EdgeWeight(1, 5), 3.0, 1e-12);
}

class BatchUpdaterEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BatchUpdaterEquivalence, LatchFreeMatchesSequential) {
  const auto [threads, seed] = GetParam();
  const auto batch = RandomBatch(5000, seed);

  TopologyStore seq_store, par_store;
  ThreadPool pool(threads);
  for (const EdgeUpdate& u : batch) seq_store.Apply(u);
  par_store.ApplyBatch(batch, &pool);

  EXPECT_EQ(par_store.NumEdges(), seq_store.NumEdges());
  ExpectSameContents(seq_store, par_store);
}

TEST_P(BatchUpdaterEquivalence, LatchBasedMatchesSequentialForInserts) {
  // The latch-based reference (threads race over the raw batch, one
  // map-shard latch per update) has no cross-thread ordering guarantees
  // for conflicting ops, so compare on an insert-only (commutative) batch.
  const auto [threads, seed] = GetParam();
  auto batch = RandomBatch(5000, seed);
  for (auto& u : batch) u.kind = UpdateKind::kInsert;

  TopologyStore seq_store, par_store;
  ThreadPool pool(threads);
  for (const EdgeUpdate& u : batch) seq_store.Apply(u);
  pool.ParallelFor(
      batch.size(), [&](std::size_t i) { par_store.Apply(batch[i]); }, 16);

  EXPECT_EQ(par_store.NumEdges(), seq_store.NumEdges());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchUpdaterEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 8),
                       ::testing::Values(1ull, 77ull)));

TEST(BatchUpdaterTest, RepeatedBatchesAccumulate) {
  TopologyStore store;
  ThreadPool pool(4);
  RmatParams p;
  p.scale = 10;
  p.num_edges = 20000;
  const std::vector<Edge> edges = GenerateRmat(p);
  std::vector<EdgeUpdate> batch;
  for (const Edge& e : edges) {
    batch.push_back({UpdateKind::kInsert, e});
    if (batch.size() == 4096) {
      store.ApplyBatch(batch, &pool);
      batch.clear();
    }
  }
  store.ApplyBatch(batch, &pool);

  TopologyStore reference;
  for (const Edge& e : edges) reference.AddEdge(e.src, e.dst, e.weight);
  EXPECT_EQ(store.NumEdges(), reference.NumEdges());
  ExpectSameContents(reference, store);

  // Trees stay structurally valid after the concurrent build.
  std::string err;
  bool ok = true;
  store.ForEachSource([&](VertexId, const Samtree& t) {
    ok = ok && t.CheckInvariants(&err);
  });
  EXPECT_TRUE(ok) << err;
}

}  // namespace
}  // namespace platod2gl
