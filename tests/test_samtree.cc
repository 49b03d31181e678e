// Samtree unit tests (paper Section IV).
#include "core/samtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/memory.h"
#include "common/random.h"

namespace platod2gl {
namespace {

SamtreeConfig SmallConfig(std::uint32_t capacity = 4, std::uint32_t alpha = 0,
                          bool compress = true) {
  return SamtreeConfig{.node_capacity = capacity,
                       .alpha = alpha,
                       .compress_ids = compress};
}

std::map<VertexId, Weight> AsMap(const Samtree& t) {
  std::map<VertexId, Weight> m;
  for (const auto& [v, w] : t.Neighbors()) m[v] = w;
  return m;
}

TEST(SamtreeTest, EmptyTree) {
  Samtree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Height(), 0u);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 0.0);
  EXPECT_FALSE(t.Contains(1));
  EXPECT_FALSE(t.Remove(1));
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

TEST(SamtreeTest, SingleLeafInsertAndLookup) {
  // Paper Example 1, samtree of v3: neighbours {4: 0.6, 7: 0.7}.
  Samtree t(SmallConfig());
  t.Insert(4, 0.6);
  t.Insert(7, 0.7);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.Height(), 1u);  // one leaf
  EXPECT_NEAR(t.TotalWeight(), 1.3, 1e-12);
  ASSERT_TRUE(t.GetWeight(4).has_value());
  EXPECT_NEAR(*t.GetWeight(4), 0.6, 1e-12);
  ASSERT_TRUE(t.GetWeight(7).has_value());
  // Weights are recovered from Fenwick prefix differences, so allow for
  // floating-point rounding.
  EXPECT_NEAR(*t.GetWeight(7), 0.7, 1e-12);
  EXPECT_FALSE(t.GetWeight(5).has_value());
}

TEST(SamtreeTest, InsertExistingRefreshesWeight) {
  Samtree t(SmallConfig());
  t.Insert(4, 0.6);
  t.Insert(4, 2.0);  // Algorithm 2 line 4
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NEAR(*t.GetWeight(4), 2.0, 1e-12);
  EXPECT_NEAR(t.TotalWeight(), 2.0, 1e-12);
}

TEST(SamtreeTest, PaperExample2OverflowSplit) {
  // Capacity 4; neighbours {1,2,3,4}; inserting 6 splits the leaf into
  // {1,2} and {3,4,6} under a new root.
  SamtreeOpStats& ops = Samtree::ThreadOpStats();
  ops = {};
  Samtree t(SmallConfig(4));
  t.Insert(1, 0.3);
  t.Insert(2, 0.4);
  t.Insert(3, 0.1);
  t.Insert(4, 0.7);
  EXPECT_EQ(t.Height(), 1u);
  t.Insert(6, 0.3);
  EXPECT_EQ(t.Height(), 2u);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_NEAR(t.TotalWeight(), 1.8, 1e-12);
  EXPECT_EQ(ops.leaf_splits, 1u);
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
  // All five neighbours still retrievable with their weights.
  const auto m = AsMap(t);
  EXPECT_EQ(m.size(), 5u);
  EXPECT_NEAR(m.at(1), 0.3, 1e-12);
  EXPECT_NEAR(m.at(6), 0.3, 1e-12);
}

TEST(SamtreeTest, UpdateReturnsFalseForMissing) {
  Samtree t(SmallConfig());
  t.Insert(1, 1.0);
  EXPECT_FALSE(t.Update(2, 5.0));
  EXPECT_TRUE(t.Update(1, 5.0));
  EXPECT_NEAR(*t.GetWeight(1), 5.0, 1e-12);
}

TEST(SamtreeTest, RemoveFromLeafOnlyTree) {
  Samtree t(SmallConfig());
  t.Insert(1, 1.0);
  t.Insert(2, 2.0);
  EXPECT_TRUE(t.Remove(1));
  EXPECT_FALSE(t.Remove(1));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NEAR(t.TotalWeight(), 2.0, 1e-12);
  EXPECT_TRUE(t.Remove(2));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.Height(), 0u);
}

TEST(SamtreeTest, RemoveTriggersMergeAndHeightShrink) {
  SamtreeOpStats& ops = Samtree::ThreadOpStats();
  ops = {};
  Samtree t(SmallConfig(4));
  for (VertexId v = 1; v <= 10; ++v) t.Insert(v, 1.0);
  EXPECT_GE(t.Height(), 2u);
  std::string err;
  for (VertexId v = 1; v <= 9; ++v) {
    EXPECT_TRUE(t.Remove(v)) << v;
    ASSERT_TRUE(t.CheckInvariants(&err)) << "after removing " << v << ": "
                                         << err;
  }
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Height(), 1u);  // collapsed back to a lone leaf
  EXPECT_TRUE(t.Contains(10));
  EXPECT_GT(ops.merges, 0u);
}

TEST(SamtreeTest, ManyInsertsKeepInvariantsAndContents) {
  Samtree t(SmallConfig(8));
  std::map<VertexId, Weight> shadow;
  Xoshiro256 rng(99);
  for (int i = 0; i < 2000; ++i) {
    const VertexId v = rng.NextUint64(5000);
    const Weight w = 0.01 + rng.NextDouble();
    t.Insert(v, w);
    shadow[v] = w;
  }
  EXPECT_EQ(t.size(), shadow.size());
  std::string err;
  ASSERT_TRUE(t.CheckInvariants(&err)) << err;
  const auto got = AsMap(t);
  ASSERT_EQ(got.size(), shadow.size());
  for (const auto& [v, w] : shadow) {
    auto it = got.find(v);
    ASSERT_NE(it, got.end()) << v;
    ASSERT_NEAR(it->second, w, 1e-9) << v;  // Fenwick rounding tolerance
  }
}

TEST(SamtreeTest, HeightGrowsLogarithmically) {
  Samtree t(SmallConfig(4));
  for (VertexId v = 0; v < 1000; ++v) t.Insert(v, 1.0);
  // Capacity 4, 1000 elements: height must stay well below a degenerate
  // linear chain but above one level.
  EXPECT_GE(t.Height(), 3u);
  EXPECT_LE(t.Height(), 12u);
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

TEST(SamtreeTest, DescendingInsertUpdatesMinKeys) {
  Samtree t(SmallConfig(4));
  for (VertexId v = 100; v > 0; --v) t.Insert(v, 1.0);
  EXPECT_EQ(t.size(), 100u);
  std::string err;
  ASSERT_TRUE(t.CheckInvariants(&err)) << err;
  for (VertexId v = 1; v <= 100; ++v) EXPECT_TRUE(t.Contains(v)) << v;
}

TEST(SamtreeTest, TotalWeightTracksUpdatesAndRemovals) {
  Samtree t(SmallConfig(4));
  for (VertexId v = 0; v < 50; ++v) t.Insert(v, 1.0);
  EXPECT_NEAR(t.TotalWeight(), 50.0, 1e-9);
  t.Update(10, 5.0);
  EXPECT_NEAR(t.TotalWeight(), 54.0, 1e-9);
  t.Remove(10);
  EXPECT_NEAR(t.TotalWeight(), 49.0, 1e-9);
}

TEST(SamtreeTest, SampleWeightedReturnsOnlyStoredNeighbors) {
  Samtree t(SmallConfig(4));
  std::set<VertexId> inserted;
  for (VertexId v = 0; v < 100; v += 3) {
    t.Insert(v, 0.5 + static_cast<double>(v));
    inserted.insert(v);
  }
  Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(inserted.count(t.SampleWeighted(rng)));
    EXPECT_TRUE(inserted.count(t.SampleUniform(rng)));
  }
}

TEST(SamtreeTest, SampleManyFillsOutput) {
  Samtree t(SmallConfig());
  t.Insert(1, 1.0);
  t.Insert(2, 1.0);
  Xoshiro256 rng(6);
  std::vector<VertexId> out;
  t.SampleWeighted(50, rng, &out);
  EXPECT_EQ(out.size(), 50u);
  t.SampleUniform(25, rng, &out);
  EXPECT_EQ(out.size(), 75u);
}

TEST(SamtreeTest, MemoryGrowsWithContentAndSplitsIntoCategories) {
  Samtree t(SmallConfig(16));
  const std::size_t empty_bytes = t.MemoryUsage();
  for (VertexId v = 0; v < 500; ++v) t.Insert(v, 1.0);
  const MemoryBreakdown mem = t.Memory();
  EXPECT_GT(mem.topology_bytes, 0u);
  EXPECT_GT(mem.index_bytes, 0u);
  EXPECT_GT(mem.Total(), empty_bytes);
}

TEST(SamtreeTest, CompressionReducesTopologyBytes) {
  constexpr VertexId kBase = 0x00AB00CD00000000ULL;
  Samtree compressed(SmallConfig(64, 0, true));
  Samtree raw(SmallConfig(64, 0, false));
  for (VertexId i = 0; i < 2000; ++i) {
    compressed.Insert(kBase + i, 1.0);
    raw.Insert(kBase + i, 1.0);
  }
  EXPECT_LT(compressed.Memory().topology_bytes,
            raw.Memory().topology_bytes * 3 / 4);
  // Contents identical regardless of encoding.
  EXPECT_EQ(AsMap(compressed), AsMap(raw));
}

TEST(SamtreeTest, StatsCountLeafAndInternalOps) {
  SamtreeOpStats& s = Samtree::ThreadOpStats();
  s = {};
  Samtree t(SmallConfig(4));
  for (VertexId v = 0; v < 100; ++v) t.Insert(v, 1.0);
  EXPECT_GT(s.leaf_ops, 0u);
  EXPECT_GT(s.leaf_splits, 0u);
  EXPECT_GT(s.internal_ops, 0u);
  // Leaf updates dominate (Table V).
  EXPECT_GT(s.leaf_ops, s.internal_ops);
}

TEST(SamtreeTest, MoveSemantics) {
  Samtree a(SmallConfig());
  a.Insert(1, 1.0);
  a.Insert(2, 2.0);
  Samtree b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(b.Contains(1));
  a = std::move(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(SamtreeTest, LargeCapacitySingleLeafBehaviour) {
  Samtree t(SmallConfig(256));
  for (VertexId v = 0; v < 256; ++v) t.Insert(v, 1.0);
  EXPECT_EQ(t.Height(), 1u);
  t.Insert(256, 1.0);
  EXPECT_EQ(t.Height(), 2u);
}


TEST(SamtreeBulkBuildTest, EqualsIncrementalConstruction) {
  Xoshiro256 rng(41);
  std::vector<std::pair<VertexId, Weight>> nbrs;
  Samtree incremental(SmallConfig(16));
  for (int i = 0; i < 3000; ++i) {
    const VertexId v = rng.NextUint64(10000);
    const Weight w = 0.01 + rng.NextDouble();
    nbrs.emplace_back(v, w);
    incremental.Insert(v, w);
  }
  Samtree bulk = Samtree::BulkBuild(nbrs, SmallConfig(16));

  EXPECT_EQ(bulk.size(), incremental.size());
  EXPECT_NEAR(bulk.TotalWeight(), incremental.TotalWeight(), 1e-6);
  std::string err;
  ASSERT_TRUE(bulk.CheckInvariants(&err)) << err;
  const auto a = AsMap(bulk);
  const auto b = AsMap(incremental);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [v, w] : b) {
    ASSERT_NEAR(a.at(v), w, 1e-9) << v;
  }
}

TEST(SamtreeBulkBuildTest, EdgeSizes) {
  // Empty.
  EXPECT_TRUE(Samtree::BulkBuild({}, SmallConfig(4)).empty());
  // Single.
  Samtree one = Samtree::BulkBuild({{7, 2.0}}, SmallConfig(4));
  EXPECT_EQ(one.size(), 1u);
  EXPECT_NEAR(*one.GetWeight(7), 2.0, 1e-12);
  // Exactly capacity, capacity + 1 and a large power of two.
  std::string err;
  for (std::size_t n : {4u, 5u, 1024u}) {
    std::vector<std::pair<VertexId, Weight>> nbrs;
    for (VertexId v = 0; v < n; ++v) nbrs.emplace_back(v * 3, 1.0);
    Samtree t = Samtree::BulkBuild(nbrs, SmallConfig(4));
    ASSERT_EQ(t.size(), n);
    ASSERT_TRUE(t.CheckInvariants(&err)) << "n=" << n << ": " << err;
  }
}

TEST(SamtreeBulkBuildTest, DuplicatesKeepLastWeight) {
  Samtree t = Samtree::BulkBuild({{5, 1.0}, {6, 2.0}, {5, 9.0}},
                                 SmallConfig(4));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_NEAR(*t.GetWeight(5), 9.0, 1e-12);
}

TEST(SamtreeBulkBuildTest, BuiltTreeAcceptsDynamicOps) {
  std::vector<std::pair<VertexId, Weight>> nbrs;
  for (VertexId v = 0; v < 500; ++v) nbrs.emplace_back(v, 1.0);
  Samtree t = Samtree::BulkBuild(nbrs, SmallConfig(8));
  t.Insert(10000, 2.0);
  EXPECT_TRUE(t.Remove(250));
  EXPECT_TRUE(t.Update(100, 5.0));
  EXPECT_EQ(t.size(), 500u);
  std::string err;
  ASSERT_TRUE(t.CheckInvariants(&err)) << err;
  Xoshiro256 rng(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(t.SampleWeighted(rng), 250u);
  }
}


TEST(SamtreeTest, MergeWithLeftSiblingWhenRightmostUnderflows) {
  // Drain only the largest IDs so the rightmost leaf underflows and must
  // merge with its LEFT sibling (no right sibling exists).
  Samtree t(SmallConfig(4));
  for (VertexId v = 1; v <= 40; ++v) t.Insert(v, 1.0);
  std::string err;
  for (VertexId v = 40; v > 5; --v) {
    ASSERT_TRUE(t.Remove(v)) << v;
    ASSERT_TRUE(t.CheckInvariants(&err)) << "after removing " << v << ": "
                                         << err;
  }
  EXPECT_EQ(t.size(), 5u);
  for (VertexId v = 1; v <= 5; ++v) EXPECT_TRUE(t.Contains(v));
}

TEST(SamtreeOpStatsTest, TableVCountsOfASeededStreamArePinned) {
  // A seeded insert / update / delete stream on one tree per capacity.
  // The expected counts were recorded when each tree still carried its
  // own counters; moving them to the thread must not change one op.
  struct Expected {
    std::uint32_t capacity;
    std::uint64_t leaf_ops, internal_ops, leaf_splits, internal_splits,
        merges;
  };
  for (const Expected& e : {Expected{4, 21597, 4337, 1494, 482, 1204},
                            Expected{16, 18276, 659, 433, 19, 317},
                            Expected{64, 16979, 104, 84, 0, 53}}) {
    SamtreeOpStats& ops = Samtree::ThreadOpStats();
    ops = {};
    Samtree t(SmallConfig(e.capacity));
    Xoshiro256 rng(2024 + e.capacity);
    for (int i = 0; i < 20000; ++i) {
      const VertexId v = rng.NextUint64(2048);
      const std::uint64_t roll = rng.NextUint64(10);
      if (roll < 6) {
        t.Insert(v, 0.5 + rng.NextDouble());
      } else if (roll < 7) {
        t.Update(v, 0.5 + rng.NextDouble());
      } else {
        t.Remove(v);
      }
    }
    EXPECT_EQ(ops.leaf_ops, e.leaf_ops) << "capacity " << e.capacity;
    EXPECT_EQ(ops.internal_ops, e.internal_ops) << "capacity " << e.capacity;
    EXPECT_EQ(ops.leaf_splits, e.leaf_splits) << "capacity " << e.capacity;
    EXPECT_EQ(ops.internal_splits, e.internal_splits)
        << "capacity " << e.capacity;
    EXPECT_EQ(ops.merges, e.merges) << "capacity " << e.capacity;
  }
}

/// Checks every leaf of t: its FSTable and CP-ID list hold room for their
/// entries and at most one leaf growth step more; MemoryUsage charges that
/// capacity. Returns the number of leaves.
std::size_t ExpectLeavesWithinOneGrowthStep(const Samtree& t,
                                            const char* phase) {
  const std::size_t c = t.config().node_capacity;
  std::size_t leaves = 0;
  t.ForEachLeafForTest([&](const CompressedIdList& ids, const FSTable& fst) {
    ++leaves;
    const std::size_t step = Samtree::LeafGrownCapacity(fst.size(), c);
    EXPECT_EQ(ids.size(), fst.size()) << phase;
    EXPECT_GE(fst.capacity(), fst.size()) << phase;
    EXPECT_LE(fst.capacity(), step) << phase;
    EXPECT_EQ(fst.MemoryUsage(), fst.capacity() * sizeof(Weight)) << phase;
    EXPECT_GE(ids.capacity(), ids.size()) << phase;
    EXPECT_LE(ids.capacity(), step) << phase;
  });
  return leaves;
}

TEST(SamtreeLayoutTest, LeafArraysStayWithinOneGrowthStepOfTheirSize) {
  // Appends: a lone leaf grows by bounded steps, one append at a time.
  Samtree t(SmallConfig(256));
  for (VertexId v = 0; v < 200; ++v) {
    t.Insert(1000 + v, 1.0 + static_cast<Weight>(v % 7));
    ASSERT_EQ(ExpectLeavesWithinOneGrowthStep(t, "append"), 1u);
  }
  // Splits: sequential IDs keep splitting the rightmost leaf.
  for (VertexId v = 200; v < 3000; ++v) t.Insert(1000 + v, 1.0);
  EXPECT_GT(ExpectLeavesWithinOneGrowthStep(t, "split"), 10u);

  // BulkBuild sizes every leaf exactly.
  std::vector<std::pair<VertexId, Weight>> nbrs;
  for (VertexId v = 0; v < 640; ++v) nbrs.emplace_back(v, 0.5);
  Samtree bulk = Samtree::BulkBuild(nbrs, SmallConfig(64));
  std::size_t exact = 0;
  bulk.ForEachLeafForTest([&](const CompressedIdList& ids, const FSTable& fst) {
    exact += ids.capacity() == ids.size() && fst.capacity() == fst.size();
  });
  EXPECT_EQ(exact, ExpectLeavesWithinOneGrowthStep(bulk, "bulk"));
  EXPECT_EQ(exact, 10u);

  // Merges: the 33rd delete drains the first leaf below half (31 < 32),
  // which merges it with its right sibling and re-splits the overflow,
  // each half one growth step up.
  SamtreeOpStats& ops = Samtree::ThreadOpStats();
  ops = {};
  for (VertexId v = 0; v < 33; ++v) ASSERT_TRUE(bulk.Remove(v));
  EXPECT_EQ(ops.merges, 1u);
  ExpectLeavesWithinOneGrowthStep(bulk, "merge");
  // And appends after the merge grow by bounded steps again.
  for (VertexId v = 5000; v < 5300; ++v) bulk.Insert(v, 2.0);
  ExpectLeavesWithinOneGrowthStep(bulk, "append after merge");
  std::string err;
  EXPECT_TRUE(bulk.CheckInvariants(&err)) << err;
}

TEST(SamtreeLayoutTest, SplitHalvesRefillInTwoGrowthSteps) {
  // Below half the node capacity a leaf array grows by GrownCapacity;
  // from half on by a sixth of it, never past capacity + 1.
  EXPECT_EQ(Samtree::LeafGrownCapacity(0, 256), 4u);
  EXPECT_EQ(Samtree::LeafGrownCapacity(100, 256), GrownCapacity(100));
  EXPECT_EQ(Samtree::LeafGrownCapacity(128, 256), 171u);
  EXPECT_EQ(Samtree::LeafGrownCapacity(171, 256), 214u);
  EXPECT_EQ(Samtree::LeafGrownCapacity(214, 256), 257u);
  EXPECT_EQ(Samtree::LeafGrownCapacity(256, 256), 257u);

  // Ascending IDs: the first split leaves 129 entries in the right leaf,
  // which takes every later append until it splits again.
  Samtree t(SmallConfig(256, 0, /*compress=*/false));
  VertexId v = 0;
  while (t.Height() < 2) t.Insert(v++, 1.0);
  std::vector<std::size_t> capacities;
  std::size_t leaves = 2;
  while (leaves == 2) {
    const std::size_t last = capacities.empty() ? 0 : capacities.back();
    std::size_t right = 0;
    leaves = 0;
    t.ForEachLeafForTest([&](const CompressedIdList&, const FSTable& fst) {
      ++leaves;
      right = fst.capacity();
    });
    if (leaves == 2 && right != last) capacities.push_back(right);
    t.Insert(v++, 1.0);
  }
  // The half starts one step up and grows twice before its next split.
  EXPECT_EQ(capacities, (std::vector<std::size_t>{172, 215, 257}));
}

TEST(SamtreeLayoutTest, UncompressedLeavesGrowTheSameWay) {
  Samtree t(SmallConfig(64, 0, /*compress=*/false));
  for (VertexId v = 0; v < 1000; ++v) {
    t.Insert((v * 7919) % 100003, 1.0);
  }
  EXPECT_GT(ExpectLeavesWithinOneGrowthStep(t, "w/o CP"), 10u);
}

}  // namespace
}  // namespace platod2gl
