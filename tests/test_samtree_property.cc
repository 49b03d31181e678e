// Samtree property suites: randomized mixed insert/update/delete workloads
// across the (capacity, alpha, compression) parameter grid, checking after
// every burst that (a) Definition-1 and aggregation invariants hold, and
// (b) the tree's contents equal a shadow std::map driven by the same ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/compressed_ids.h"
#include "core/samtree.h"

namespace platod2gl {
namespace {

struct Params {
  std::uint32_t capacity;
  std::uint32_t alpha;
  bool compress;
  std::uint64_t seed;
};

class SamtreePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, bool, std::uint64_t>> {
 protected:
  Params P() const {
    const auto [c, a, z, s] = GetParam();
    return Params{c, a, z, s};
  }
};

TEST_P(SamtreePropertyTest, MixedWorkloadMatchesShadowMap) {
  const Params p = P();
  Samtree tree(SamtreeConfig{.node_capacity = p.capacity,
                             .alpha = p.alpha,
                             .compress_ids = p.compress});
  std::map<VertexId, Weight> shadow;
  Xoshiro256 rng(p.seed);

  const std::size_t id_space = 2000;
  std::string err;
  for (int burst = 0; burst < 20; ++burst) {
    for (int op = 0; op < 150; ++op) {
      const double r = rng.NextDouble();
      const VertexId v = rng.NextUint64(id_space);
      const Weight w = 0.01 + rng.NextDouble();
      if (r < 0.55) {
        tree.Insert(v, w);
        shadow[v] = w;
      } else if (r < 0.75) {
        const bool did = tree.Update(v, w);
        EXPECT_EQ(did, shadow.count(v) > 0);
        if (did) shadow[v] = w;
      } else {
        const bool did = tree.Remove(v);
        EXPECT_EQ(did, shadow.erase(v) > 0);
      }
    }
    ASSERT_TRUE(tree.CheckInvariants(&err))
        << "burst " << burst << ": " << err;
    ASSERT_EQ(tree.size(), shadow.size());

    // Contents match exactly.
    std::map<VertexId, Weight> got;
    for (const auto& [v, w] : tree.Neighbors()) got[v] = w;
    ASSERT_EQ(got.size(), shadow.size());
    for (const auto& [v, w] : shadow) {
      auto it = got.find(v);
      ASSERT_NE(it, got.end()) << "missing " << v;
      ASSERT_NEAR(it->second, w, 1e-9) << "weight of " << v;
    }

    // Point lookups agree too.
    for (int probe = 0; probe < 50; ++probe) {
      const VertexId v = rng.NextUint64(id_space);
      const auto expect = shadow.find(v);
      const auto got_w = tree.GetWeight(v);
      if (expect == shadow.end()) {
        ASSERT_FALSE(got_w.has_value()) << v;
      } else {
        ASSERT_TRUE(got_w.has_value()) << v;
        ASSERT_NEAR(*got_w, expect->second, 1e-9);
      }
    }
  }
}

TEST_P(SamtreePropertyTest, DrainToEmptyAndRefill) {
  const Params p = P();
  Samtree tree(SamtreeConfig{.node_capacity = p.capacity,
                             .alpha = p.alpha,
                             .compress_ids = p.compress});
  Xoshiro256 rng(p.seed ^ 0xABCDEF);

  std::vector<VertexId> ids;
  for (VertexId v = 0; v < 300; ++v) ids.push_back(v * 7 + 1);

  // Shuffle insert order.
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextUint64(i)]);
  }
  for (VertexId v : ids) tree.Insert(v, 1.0);
  ASSERT_EQ(tree.size(), ids.size());

  // Shuffle delete order and drain completely.
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextUint64(i)]);
  }
  std::string err;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(tree.Remove(ids[i])) << ids[i];
    if (i % 37 == 0) {
      ASSERT_TRUE(tree.CheckInvariants(&err)) << err;
    }
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0u);

  // The drained tree is fully reusable.
  tree.Insert(42, 2.0);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_NEAR(tree.TotalWeight(), 2.0, 1e-12);
}

TEST_P(SamtreePropertyTest, WeightedSamplingFrequenciesTrackWeights) {
  const Params p = P();
  Samtree tree(SamtreeConfig{.node_capacity = p.capacity,
                             .alpha = p.alpha,
                             .compress_ids = p.compress});
  Xoshiro256 rng(p.seed ^ 0x5A5A5A);

  // A handful of heavy neighbours among many light ones so the test has
  // statistical teeth at moderate sample counts.
  std::map<VertexId, Weight> weights;
  Weight total = 0.0;
  for (VertexId v = 0; v < 60; ++v) {
    const Weight w = (v % 20 == 0) ? 10.0 : 0.5;
    tree.Insert(v, w);
    weights[v] = w;
    total += w;
  }

  std::map<VertexId, int> hits;
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) ++hits[tree.SampleWeighted(rng)];
  for (const auto& [v, w] : weights) {
    const double expect = w / total;
    const double got = hits[v] / static_cast<double>(draws);
    ASSERT_NEAR(got, expect, 0.02) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SamtreePropertyTest,
    ::testing::Combine(
        ::testing::Values(4u, 8u, 64u, 256u),   // node capacity
        ::testing::Values(0u, 2u),              // alpha slackness
        ::testing::Bool(),                      // compression
        ::testing::Values(1ull, 1337ull)),      // seeds
    [](const auto& info) {
      return "c" + std::to_string(std::get<0>(info.param)) + "_a" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_cp" : "_nocp") + "_s" +
             std::to_string(std::get<3>(info.param));
    });


// A single long adversarial differential run: 50k mixed operations with
// phase changes (insert-heavy, delete-heavy, update-heavy, churn on a
// narrow key range) against a shadow map, invariants checked at phase
// boundaries.
TEST(SamtreeFuzzTest, FiftyThousandOpsWithPhaseShifts) {
  Samtree tree(SamtreeConfig{.node_capacity = 16, .alpha = 1});
  std::map<VertexId, Weight> shadow;
  Xoshiro256 rng(0xF0CCAC1AULL);

  struct Phase {
    double insert, update;  // remainder = delete
    std::size_t id_space;
    int ops;
  };
  const Phase phases[] = {
      {0.9, 0.05, 100000, 15000},  // growth
      {0.1, 0.1, 100000, 10000},   // heavy deletion
      {0.2, 0.7, 100000, 10000},   // update churn
      {0.5, 0.2, 64, 15000},       // narrow-range churn (same keys over and
                                   // over: split/merge thrash)
  };
  std::string err;
  for (const Phase& ph : phases) {
    for (int i = 0; i < ph.ops; ++i) {
      const VertexId v = rng.NextUint64(ph.id_space);
      const Weight w = 0.01 + rng.NextDouble();
      const double r = rng.NextDouble();
      if (r < ph.insert) {
        tree.Insert(v, w);
        shadow[v] = w;
      } else if (r < ph.insert + ph.update) {
        ASSERT_EQ(tree.Update(v, w), shadow.count(v) > 0);
        if (shadow.count(v)) shadow[v] = w;
      } else {
        ASSERT_EQ(tree.Remove(v), shadow.erase(v) > 0);
      }
    }
    ASSERT_TRUE(tree.CheckInvariants(&err)) << err;
    ASSERT_EQ(tree.size(), shadow.size());
    Weight expect_total = 0.0;
    for (const auto& [v, w] : shadow) expect_total += w;
    ASSERT_NEAR(tree.TotalWeight(), expect_total,
                1e-6 * std::max(1.0, expect_total));
  }
}

// Per-operation invariant interleavings: where the suites above check at
// burst boundaries, this one validates the full Definition-1 / aggregation
// invariant set after *every single* mutation, across interleavings skewed
// to cross the α-split and merge thresholds repeatedly. Small op counts
// keep the O(n)-per-op checking affordable.
TEST(SamtreeInvariantInterleavingTest, EveryOpPreservesInvariants) {
  struct Cfg {
    std::uint32_t capacity, alpha;
  };
  const Cfg cfgs[] = {{4, 0}, {4, 2}, {5, 1}, {8, 3}};
  std::string err;
  for (const Cfg& cfg : cfgs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Samtree tree(SamtreeConfig{.node_capacity = cfg.capacity,
                                 .alpha = cfg.alpha});
      std::map<VertexId, Weight> shadow;
      Xoshiro256 rng(seed * 7919);
      for (int op = 0; op < 400; ++op) {
        // Narrow ID space (tied to capacity) so splits, merges and
        // duplicate-refresh inserts all fire within 400 ops.
        const VertexId v = rng.NextUint64(cfg.capacity * 12);
        const Weight w = 0.01 + rng.NextDouble();
        const double r = rng.NextDouble();
        if (r < 0.5) {
          tree.Insert(v, w);
          shadow[v] = w;
        } else if (r < 0.7) {
          ASSERT_EQ(tree.Update(v, w), shadow.count(v) > 0);
          if (shadow.count(v)) shadow[v] = w;
        } else {
          ASSERT_EQ(tree.Remove(v), shadow.erase(v) > 0);
        }
        ASSERT_TRUE(tree.CheckInvariants(&err))
            << "c=" << cfg.capacity << " a=" << cfg.alpha << " seed=" << seed
            << " op=" << op << ": " << err;
        ASSERT_EQ(tree.size(), shadow.size());
      }
    }
  }
}

// CP-ID round-trips at every allowed prefix width z ∈ {7, 6, 4, 0}: IDs
// engineered to differ only in their low 1 / 2 / 4 / 8 bytes must land on
// exactly that encoding width, survive a full decode, and keep a samtree
// built from them (compression on) invariant-clean with the right sorted
// contents.
TEST(SamtreeInvariantInterleavingTest, CpIdRoundTripAtEveryPrefixWidth) {
  struct Group {
    std::uint8_t z;
    std::vector<VertexId> ids;
  };
  std::vector<Group> groups(4);
  groups[0].z = 7;  // differ only in the lowest byte
  for (std::uint64_t i = 0; i < 50; ++i) {
    groups[0].ids.push_back(0x0123456789ABCD00ULL | (i * 5));
  }
  groups[1].z = 6;  // differ in the low two bytes
  for (std::uint64_t i = 0; i < 50; ++i) {
    groups[1].ids.push_back(0x0123456789AB0000ULL | (i * 0x151));
  }
  groups[2].z = 4;  // differ in the low four bytes
  for (std::uint64_t i = 0; i < 50; ++i) {
    groups[2].ids.push_back(0xDEADBEEF00000000ULL | (i * 0x01012345));
  }
  groups[3].z = 0;  // high bytes differ: no shared prefix possible
  for (std::uint64_t i = 1; i <= 50; ++i) {
    groups[3].ids.push_back(i * 0x0123456789ABCDEFULL);
  }

  for (const Group& g : groups) {
    // The raw list encodes at exactly z and round-trips every ID.
    CompressedIdList list;
    for (VertexId id : g.ids) list.Append(id);
    EXPECT_EQ(list.prefix_bytes(), g.z);
    ASSERT_EQ(list.size(), g.ids.size());
    for (std::size_t i = 0; i < g.ids.size(); ++i) {
      ASSERT_EQ(list.Get(i), g.ids[i]) << "z=" << int(g.z) << " i=" << i;
    }
    std::string err;
    ASSERT_TRUE(list.CheckConsistent(&err)) << "z=" << int(g.z) << ": " << err;

    // A compressed samtree over the same IDs stays invariant-clean and
    // returns them all, sorted.
    Samtree tree(
        SamtreeConfig{.node_capacity = 8, .alpha = 1, .compress_ids = true});
    Xoshiro256 rng(g.z + 1);
    std::vector<VertexId> shuffled = g.ids;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextUint64(i)]);
    }
    for (VertexId id : shuffled) tree.Insert(id, 1.0);
    ASSERT_TRUE(tree.CheckInvariants(&err)) << "z=" << int(g.z) << ": " << err;
    std::vector<VertexId> expect = g.ids;
    std::sort(expect.begin(), expect.end());
    std::vector<VertexId> got;
    for (const auto& [id, w] : tree.Neighbors()) got.push_back(id);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "z=" << int(g.z);
  }
}

}  // namespace
}  // namespace platod2gl
