// Negative tests for the invariant-checker layer: CheckInvariants /
// CheckConsistent must *fail* on deliberately corrupted structures, not
// just pass on healthy ones. Positive coverage of healthy trees lives in
// test_samtree_property.cc; this file proves the checker has teeth.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/compressed_ids.h"
#include "core/samtree.h"
#include "index/cstable.h"
#include "index/fstable.h"
#include "storage/topology_store.h"

namespace platod2gl {
namespace {

Samtree BuildMultiLevelTree(std::size_t n, std::uint32_t node_capacity = 8) {
  SamtreeConfig config;
  config.node_capacity = node_capacity;
  Samtree tree(config);
  Xoshiro256 rng(42);
  for (std::size_t i = 0; i < n; ++i) {
    tree.Insert(1000 + i * 3, 0.5 + rng.NextDouble());
  }
  return tree;
}

TEST(FSTableConsistencyTest, HealthyTablePasses) {
  FSTable table({1.0, 2.0, 3.0, 4.0, 5.0});
  std::string err;
  EXPECT_TRUE(table.CheckConsistent(&err)) << err;
}

TEST(FSTableConsistencyTest, DetectsNegativeWeight) {
  FSTable table({1.0, 2.0, 3.0, 4.0, 5.0});
  table.CorruptRawEntryForTest(0, -5.0);
  std::string err;
  EXPECT_FALSE(table.CheckConsistent(&err));
  EXPECT_FALSE(err.empty());
}

TEST(FSTableConsistencyTest, DetectsNonFiniteEntry) {
  FSTable table({1.0, 2.0, 3.0});
  table.CorruptRawEntryForTest(1,
                               std::numeric_limits<Weight>::quiet_NaN());
  std::string err;
  EXPECT_FALSE(table.CheckConsistent(&err));

  FSTable table2({1.0, 2.0, 3.0});
  table2.CorruptRawEntryForTest(2,
                                std::numeric_limits<Weight>::infinity());
  EXPECT_FALSE(table2.CheckConsistent(&err));
}

TEST(CSTableConsistencyTest, HealthyTablePasses) {
  CSTable table({1.0, 2.0, 3.0});
  std::string err;
  EXPECT_TRUE(table.CheckConsistent(&err)) << err;
}

TEST(CSTableConsistencyTest, DetectsNonMonotonePrefix) {
  CSTable table({1.0, 2.0, 3.0});  // cumsum = {1, 3, 6}
  table.CorruptEntryForTest(1, 0.25);
  std::string err;
  EXPECT_FALSE(table.CheckConsistent(&err));
  EXPECT_FALSE(err.empty());
}

TEST(CSTableConsistencyTest, DetectsNonFinitePrefix) {
  CSTable table({1.0, 2.0, 3.0});
  table.CorruptEntryForTest(2, std::numeric_limits<Weight>::quiet_NaN());
  std::string err;
  EXPECT_FALSE(table.CheckConsistent(&err));
}

TEST(CompressedIdsConsistencyTest, AllPrefixWidthsPass) {
  // One group per allowed z: IDs differing only in the low 1 / 2 / 4 / 8
  // bytes land on z = 7 / 6 / 4 / 0 respectively.
  const std::vector<std::vector<VertexId>> groups = {
      {0x1122334455667700ULL, 0x1122334455667701ULL, 0x11223344556677FEULL},
      {0x1122334455660000ULL, 0x1122334455660100ULL, 0x112233445566FF01ULL},
      {0xAABBCCDD00000000ULL, 0xAABBCCDD01020304ULL, 0xAABBCCDDFFFFFFFFULL},
      {0x0000000000000001ULL, 0xFF00000000000001ULL, 0x0123456789ABCDEFULL},
  };
  const std::vector<std::uint8_t> expected_z = {7, 6, 4, 0};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    CompressedIdList list;
    for (VertexId id : groups[g]) list.Append(id);
    EXPECT_EQ(list.prefix_bytes(), expected_z[g]) << "group " << g;
    std::string err;
    EXPECT_TRUE(list.CheckConsistent(&err)) << "group " << g << ": " << err;
  }
}

TEST(SamtreeInvariantTest, HealthyMultiLevelTreePasses) {
  Samtree tree = BuildMultiLevelTree(200);
  ASSERT_GE(tree.Height(), 3u);
  std::string err;
  EXPECT_TRUE(tree.CheckInvariants(&err)) << err;
}

TEST(SamtreeInvariantTest, CatchesCorruptedFSTable) {
  Samtree tree = BuildMultiLevelTree(200);
  ASSERT_TRUE(tree.CorruptForTest(TestCorruption::kFSTableEntry));
  std::string err;
  EXPECT_FALSE(tree.CheckInvariants(&err));
  EXPECT_FALSE(err.empty());
}

TEST(SamtreeInvariantTest, CatchesCorruptedCSTable) {
  Samtree tree = BuildMultiLevelTree(200);
  ASSERT_TRUE(tree.CorruptForTest(TestCorruption::kCSTableEntry));
  std::string err;
  EXPECT_FALSE(tree.CheckInvariants(&err));
  EXPECT_FALSE(err.empty());
}

TEST(SamtreeInvariantTest, CatchesCorruptedChildCount) {
  Samtree tree = BuildMultiLevelTree(200);
  ASSERT_TRUE(tree.CorruptForTest(TestCorruption::kChildCount));
  std::string err;
  EXPECT_FALSE(tree.CheckInvariants(&err));
  EXPECT_FALSE(err.empty());
}

TEST(SamtreeInvariantTest, CatchesBrokenRoutingOrder) {
  Samtree tree = BuildMultiLevelTree(200);
  ASSERT_TRUE(tree.CorruptForTest(TestCorruption::kMinId));
  std::string err;
  EXPECT_FALSE(tree.CheckInvariants(&err));
  EXPECT_FALSE(err.empty());
}

TEST(SamtreeInvariantTest, InternalCorruptionNeedsMultiLevelTree) {
  // A leaf-only root has no CSTable / counts / routing IDs to damage.
  Samtree tree = BuildMultiLevelTree(4, /*node_capacity=*/256);
  ASSERT_EQ(tree.Height(), 1u);
  EXPECT_FALSE(tree.CorruptForTest(TestCorruption::kCSTableEntry));
  EXPECT_FALSE(tree.CorruptForTest(TestCorruption::kChildCount));
  EXPECT_FALSE(tree.CorruptForTest(TestCorruption::kMinId));
  std::string err;
  EXPECT_TRUE(tree.CheckInvariants(&err)) << err;  // refusal left it intact
}

TEST(TopologyStoreInvariantTest, DetectsEdgeCounterDrift) {
  TopologyStore store;
  for (VertexId src = 0; src < 8; ++src) {
    for (VertexId dst = 0; dst < 16; ++dst) {
      store.AddEdge(src, 100 + dst, 1.0 + dst);
    }
  }
  std::string err;
  ASSERT_TRUE(store.CheckAllInvariants(&err)) << err;

  // A spurious counter bump — the signature of a mutation path that
  // miscounted an edge.
  store.CorruptEdgeCounterForTest();
  EXPECT_FALSE(store.CheckAllInvariants(&err));
  EXPECT_NE(err.find("drift"), std::string::npos) << err;
}

TEST(TopologyStoreInvariantTest, CleanAfterBatchUpdater) {
  TopologyStore store;
  ThreadPool pool(4);
  Xoshiro256 rng(3);
  std::vector<EdgeUpdate> batch;
  for (int i = 0; i < 5000; ++i) {
    EdgeUpdate u;
    u.edge = Edge{rng.NextUint64(64), rng.NextUint64(512),
                  0.1 + rng.NextDouble(), 0};
    const double r = rng.NextDouble();
    u.kind = r < 0.6 ? UpdateKind::kInsert
                     : (r < 0.8 ? UpdateKind::kInPlaceUpdate
                                : UpdateKind::kDelete);
    batch.push_back(u);
  }
  store.ApplyBatch(batch, &pool);
  std::string err;
  EXPECT_TRUE(store.CheckAllInvariants(&err)) << err;
}

}  // namespace
}  // namespace platod2gl
