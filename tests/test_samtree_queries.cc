// Samtree query extensions: weighted sampling without replacement
// (FSTable-enabled) and ranged counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/samtree.h"

namespace platod2gl {
namespace {

TEST(SampleDistinctTest, ReturnsDistinctNeighbors) {
  Samtree t(SamtreeConfig{.node_capacity = 8});
  for (VertexId v = 0; v < 100; ++v) t.Insert(v, 0.1 + (v % 7) * 0.3);
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto picks = t.SampleWeightedDistinct(20, rng);
    EXPECT_EQ(picks.size(), 20u);
    std::set<VertexId> uniq(picks.begin(), picks.end());
    EXPECT_EQ(uniq.size(), picks.size()) << "duplicates drawn";
  }
}

TEST(SampleDistinctTest, KLargerThanDegreeReturnsAll) {
  Samtree t(SamtreeConfig{.node_capacity = 4});
  for (VertexId v = 0; v < 10; ++v) t.Insert(v, 1.0);
  Xoshiro256 rng(2);
  const auto picks = t.SampleWeightedDistinct(100, rng);
  std::set<VertexId> uniq(picks.begin(), picks.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(SampleDistinctTest, TreeRestoredAfterSampling) {
  Samtree t(SamtreeConfig{.node_capacity = 8});
  std::map<VertexId, Weight> weights;
  Xoshiro256 gen(3);
  for (VertexId v = 0; v < 200; ++v) {
    const Weight w = 0.05 + gen.NextDouble();
    t.Insert(v, w);
    weights[v] = w;
  }
  const Weight total_before = t.TotalWeight();

  Xoshiro256 rng(4);
  t.SampleWeightedDistinct(150, rng);

  EXPECT_NEAR(t.TotalWeight(), total_before, 1e-6);
  for (const auto& [v, w] : weights) {
    ASSERT_NEAR(*t.GetWeight(v), w, 1e-9) << v;
  }
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

TEST(SampleDistinctTest, HeavyNeighborsDrawnFirstMoreOften) {
  // One dominant neighbour: it should appear in nearly every k=1 draw.
  Samtree t(SamtreeConfig{});
  t.Insert(1, 1000.0);
  for (VertexId v = 2; v < 30; ++v) t.Insert(v, 0.01);
  Xoshiro256 rng(5);
  int first_hits = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const auto picks = t.SampleWeightedDistinct(3, rng);
    ASSERT_EQ(picks.size(), 3u);
    first_hits += (picks[0] == 1);
  }
  EXPECT_GT(first_hits, 480);
}

TEST(SampleDistinctTest, EmptyTree) {
  Samtree t;
  Xoshiro256 rng(6);
  EXPECT_TRUE(t.SampleWeightedDistinct(5, rng).empty());
}

TEST(RangeQueryTest, CountsMatchBruteForce) {
  Samtree t(SamtreeConfig{.node_capacity = 8});
  std::vector<VertexId> ids;
  Xoshiro256 gen(7);
  for (int i = 0; i < 400; ++i) {
    const VertexId v = gen.NextUint64(10000);
    if (!t.Contains(v)) ids.push_back(v);
    t.Insert(v, 1.0);
  }
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    VertexId lo = rng.NextUint64(10000);
    VertexId hi = rng.NextUint64(10000);
    if (lo > hi) std::swap(lo, hi);
    const std::size_t expect = static_cast<std::size_t>(
        std::count_if(ids.begin(), ids.end(),
                      [&](VertexId v) { return v >= lo && v <= hi; }));
    ASSERT_EQ(t.CountInRange(lo, hi), expect)
        << "[" << lo << ", " << hi << "]";
  }
}

TEST(RangeQueryTest, FullAndEmptyRanges) {
  Samtree t(SamtreeConfig{.node_capacity = 4});
  for (VertexId v = 10; v < 60; ++v) t.Insert(v, 1.0);
  EXPECT_EQ(t.CountInRange(0, kInvalidVertex), 50u);
  EXPECT_EQ(t.CountInRange(0, 9), 0u);
  EXPECT_EQ(t.CountInRange(60, 100), 0u);
  EXPECT_EQ(t.CountInRange(20, 20), 1u);
  EXPECT_EQ(t.CountInRange(30, 10), 0u);  // inverted range
}

TEST(RangeQueryTest, NamespaceFilteringUseCase) {
  // Heterogeneous ID namespaces: range queries slice a neighbourhood by
  // vertex type (all live-rooms vs all tags of one user).
  constexpr VertexId kLiveBase = 0x0002000000000000ULL;
  constexpr VertexId kTagBase = 0x0004000000000000ULL;
  Samtree t(SamtreeConfig{.node_capacity = 8});
  for (VertexId i = 0; i < 30; ++i) t.Insert(kLiveBase + i, 1.0);
  for (VertexId i = 0; i < 7; ++i) t.Insert(kTagBase + i, 1.0);
  EXPECT_EQ(t.CountInRange(kLiveBase, kTagBase - 1), 30u);
  EXPECT_EQ(t.CountInRange(kTagBase, kInvalidVertex), 7u);
}

class DistinctVsReplacementSweep
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DistinctVsReplacementSweep, DistributionOfFirstDrawMatches) {
  // The *first* draw of a without-replacement sample must follow the
  // plain weighted distribution exactly.
  Samtree t(SamtreeConfig{.node_capacity = GetParam()});
  std::map<VertexId, Weight> weights;
  Weight total = 0.0;
  Xoshiro256 gen(10);
  for (VertexId v = 0; v < 40; ++v) {
    const Weight w = 0.05 + gen.NextDouble();
    t.Insert(v, w);
    weights[v] = w;
    total += w;
  }
  Xoshiro256 rng(11);
  std::map<VertexId, int> hits;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    ++hits[t.SampleWeightedDistinct(1, rng)[0]];
  }
  for (const auto& [v, w] : weights) {
    ASSERT_NEAR(hits[v] / static_cast<double>(draws), w / total, 0.015)
        << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, DistinctVsReplacementSweep,
                         ::testing::Values(4u, 16u, 256u));

}  // namespace
}  // namespace platod2gl
