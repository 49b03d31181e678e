// Cross-cutting edge-case tests: API misuse surfaces, boundary inputs and
// behaviours that individual module suites do not pin down.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/random.h"
#include "core/compressed_ids.h"
#include "index/fstable.h"
#include "storage/cuckoo_map.h"
#include "storage/graph_store.h"

namespace platod2gl {
namespace {

TEST(EdgeCaseTest, GraphStoreRejectsUnknownRelation) {
  GraphStore g(GraphStoreConfig{.num_relations = 2});
  EXPECT_THROW(g.AddEdge({1, 2, 1.0, /*type=*/5}), std::out_of_range);
  EXPECT_THROW(g.Degree(1, 5), std::out_of_range);
  // Valid relations unaffected.
  g.AddEdge({1, 2, 1.0, 1});
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(EdgeCaseTest, GraphStoreRelationCountClampedToOne) {
  GraphStore g(GraphStoreConfig{.num_relations = 0});
  g.AddEdge({1, 2, 1.0, 0});  // relation 0 must exist
  EXPECT_EQ(g.num_relations(), 1u);
}

TEST(EdgeCaseTest, CuckooMapSequentialKeysDense) {
  // Sequential IDs are the common production pattern and the classic way
  // to stress a weak hash.
  CuckooMap<std::uint64_t> map(4, 4);
  for (VertexId k = 1; k <= 50000; ++k) {
    map.With(k, [k](std::uint64_t& v) { v = k; });
  }
  EXPECT_EQ(map.Size(), 50000u);
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const VertexId k = rng.NextUint64(50000) + 1;
    ASSERT_NE(map.FindUnsafe(k), nullptr) << k;
  }
}

TEST(EdgeCaseTest, FSTableHandlesWideWeightRange) {
  // A 12-orders-of-magnitude spread that still fits double precision
  // (1e9 + 1e-3 is exactly representable; 1e12 + 1e-12 would absorb).
  FSTable f({1e-3, 1e9, 1e-3});
  EXPECT_NEAR(f.TotalWeight(), 1e9, 1.0);
  Xoshiro256 rng(2);
  // The huge entry dominates absolutely.
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(f.Sample(rng), 1u);
  // Updating it away shifts the distribution to the survivors.
  f.UpdateWeight(1, 1e-3);
  int ones = 0;
  for (int i = 0; i < 3000; ++i) ones += (f.Sample(rng) == 1u);
  EXPECT_NEAR(ones / 3000.0, 1.0 / 3.0, 0.05);
}

TEST(EdgeCaseTest, FSTableNegativeDeltaKeepsConsistency) {
  FSTable f({5.0, 5.0, 5.0});
  f.AddDelta(1, -4.0);  // decay, not removal
  EXPECT_NEAR(f.WeightAt(1), 1.0, 1e-12);
  EXPECT_NEAR(f.TotalWeight(), 11.0, 1e-12);
  EXPECT_NEAR(f.Prefix(1), 6.0, 1e-12);
}

TEST(EdgeCaseTest, CompressedIdsExtremeValues) {
  CompressedIdList l;
  l.Append(0);
  l.Append(~0ULL);             // forces z = 0
  l.Append(0x8000000000000000ULL);
  EXPECT_EQ(l.prefix_bytes(), 0);
  EXPECT_EQ(l.Get(0), 0ULL);
  EXPECT_EQ(l.Get(1), ~0ULL);
  EXPECT_EQ(l.Get(2), 0x8000000000000000ULL);
  EXPECT_EQ(l.Find(~0ULL), 1u);
}

TEST(EdgeCaseTest, SamtreeCapacityClampedToFour) {
  // Degenerate capacities are clamped rather than honoured.
  Samtree t(SamtreeConfig{.node_capacity = 1});
  for (VertexId v = 0; v < 50; ++v) t.Insert(v, 1.0);
  EXPECT_EQ(t.size(), 50u);
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

TEST(EdgeCaseTest, SamtreeZeroWeightEdgesAreStoredButNotSampled) {
  Samtree t(SamtreeConfig{});
  t.Insert(1, 0.0);
  t.Insert(2, 1.0);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.Contains(1));
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(t.SampleWeighted(rng), 2u);
  // Uniform sampling still sees it.
  int ones = 0;
  for (int i = 0; i < 2000; ++i) ones += (t.SampleUniform(rng) == 1u);
  EXPECT_NEAR(ones / 2000.0, 0.5, 0.05);
}

TEST(EdgeCaseTest, SamtreeMaxVertexIdRoundTrips) {
  // kInvalidVertex is reserved; the largest legal ID is max-1.
  Samtree t(SamtreeConfig{.node_capacity = 4});
  const VertexId huge = kInvalidVertex - 1;
  t.Insert(huge, 2.0);
  for (VertexId v = 0; v < 20; ++v) t.Insert(v, 1.0);
  EXPECT_TRUE(t.Contains(huge));
  EXPECT_NEAR(*t.GetWeight(huge), 2.0, 1e-12);
  EXPECT_EQ(t.CountInRange(huge, kInvalidVertex), 1u);
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

}  // namespace
}  // namespace platod2gl
