// Batched / SIMD sampling hot path (docs/sampling_simd.md): the batched
// multi-draw descent and its SIMD kernels must be *bit-identical* to the
// scalar one-at-a-time paths under the same seed, across dispatch
// flavours, and statistically sound under interleaved mutations; samtrees
// must survive full build/mutate/destroy lifecycles cleanly (the suite
// runs under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "core/samtree.h"
#include "index/alias_table.h"
#include "index/fstable.h"

namespace platod2gl {
namespace {

// Restores the process-wide dispatch override even when an assertion
// fires mid-test.
class DispatchGuard {
 public:
  DispatchGuard() = default;
  ~DispatchGuard() { simd::SetAvx2EnabledForTest(simd::Avx2Supported()); }
};

std::vector<Weight> RandomWeights(Xoshiro256& rng, std::size_t n) {
  std::vector<Weight> w;
  w.reserve(n);
  for (std::size_t i = 0; i < n; ++i) w.push_back(0.05 + rng.NextDouble());
  return w;
}

Samtree BuildTree(std::size_t n, std::uint32_t capacity, std::uint64_t seed) {
  Samtree tree(SamtreeConfig{.node_capacity = capacity, .alpha = 0,
                             .compress_ids = true});
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    tree.Insert(static_cast<VertexId>(i * 7 + 3), 0.05 + rng.NextDouble());
  }
  return tree;
}

// --- SIMD kernels: scalar and AVX2 flavours must agree bit-for-bit ----

TEST(SimdKernels, FindFirstGreaterMatchesScalar) {
  if (!simd::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this host";
  DispatchGuard guard;
  Xoshiro256 rng(42);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 17u, 64u, 255u}) {
    std::vector<Weight> a = RandomWeights(rng, n);
    std::sort(a.begin(), a.end());
    // Probe below, between, at, and above every element boundary — the
    // `at` probes pin the strict-> (upper_bound) semantics on ties.
    std::vector<Weight> probes{-1.0, 1e9};
    for (Weight x : a) {
      probes.push_back(x);
      probes.push_back(x - 1e-12);
      probes.push_back(x + 1e-12);
    }
    for (std::size_t start = 0; start <= n; ++start) {
      for (Weight r : probes) {
        const Weight* first = a.data() + start;
        const Weight* last = a.data() + n;
        const std::size_t expect = static_cast<std::size_t>(
            std::upper_bound(first, last, r) - a.data());
        simd::SetAvx2EnabledForTest(false);
        const std::size_t s = simd::FindFirstGreater(a.data(), n, start, r);
        simd::SetAvx2EnabledForTest(true);
        const std::size_t v = simd::FindFirstGreater(a.data(), n, start, r);
        ASSERT_EQ(expect, s) << "n=" << n << " start=" << start << " r=" << r;
        ASSERT_EQ(s, v) << "n=" << n << " start=" << start << " r=" << r;
      }
    }
  }
}

TEST(SimdKernels, AddToRangeMatchesScalarBitwise) {
  if (!simd::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this host";
  DispatchGuard guard;
  Xoshiro256 rng(43);
  for (std::size_t n : {1u, 2u, 4u, 5u, 9u, 33u, 128u}) {
    const std::vector<Weight> base = RandomWeights(rng, n);
    for (std::size_t begin = 0; begin <= n; ++begin) {
      for (std::size_t end = begin; end <= n; ++end) {
        const Weight delta = rng.NextDouble() - 0.5;
        std::vector<Weight> s = base, v = base;
        simd::SetAvx2EnabledForTest(false);
        simd::AddToRange(s.data(), begin, end, delta);
        simd::SetAvx2EnabledForTest(true);
        simd::AddToRange(v.data(), begin, end, delta);
        for (std::size_t i = 0; i < n; ++i) {
          // Bit-level equality, not EXPECT_DOUBLE_EQ: the contract is
          // identical IEEE operations, not merely close results.
          ASSERT_EQ(std::memcmp(&s[i], &v[i], sizeof(Weight)), 0)
              << "i=" << i << " [" << begin << "," << end << ") n=" << n;
        }
      }
    }
  }
}

// --- FSTable batched Fenwick descent -----------------------------------

TEST(FSTableBatched, FindIndicesMatchesPerDrawFindIndex) {
  DispatchGuard guard;
  Xoshiro256 rng(7);
  for (std::size_t n : {1u, 2u, 3u, 8u, 31u, 32u, 33u, 200u}) {
    const std::vector<Weight> w = RandomWeights(rng, n);
    FSTable fs(w);
    const Weight total = fs.TotalWeight();
    for (std::size_t m : {1u, 4u, 17u, 128u}) {
      std::vector<Weight> rs;
      rs.reserve(m);
      for (std::size_t d = 0; d < m; ++d) {
        rs.push_back(rng.NextDouble() * total);
      }
      std::vector<std::size_t> expect;
      expect.reserve(m);
      for (Weight r : rs) expect.push_back(fs.FindIndex(r));
      for (bool avx2 : {false, true}) {
        if (avx2 && !simd::Avx2Supported()) continue;
        simd::SetAvx2EnabledForTest(avx2);
        std::vector<std::uint32_t> got(m);
        fs.FindIndices(rs.data(), got.data(), m);
        for (std::size_t d = 0; d < m; ++d) {
          ASSERT_EQ(expect[d], got[d])
              << "n=" << n << " m=" << m << " d=" << d << " avx2=" << avx2;
        }
      }
    }
  }
}

TEST(FSTableBatched, FenwickFindIndicesAcrossDistinctTables) {
  // The samtree batch hands the kernel a different leaf view per draw;
  // exercise mixed-size lanes (including mid >= n masked gathers).
  DispatchGuard guard;
  Xoshiro256 rng(17);
  std::vector<FSTable> tables;
  for (std::size_t n : {1u, 2u, 5u, 8u, 13u, 64u, 100u, 257u}) {
    tables.emplace_back(RandomWeights(rng, n));
  }
  const std::size_t m = 97;
  std::vector<FenwickView> views(m);
  std::vector<Weight> rs(m);
  std::vector<std::size_t> expect(m);
  for (std::size_t d = 0; d < m; ++d) {
    const FSTable& fs = tables[rng.NextUint64(tables.size())];
    views[d] = fs.View();
    rs[d] = rng.NextDouble() * fs.TotalWeight();
    expect[d] = fs.FindIndex(rs[d]);
  }
  for (bool avx2 : {false, true}) {
    if (avx2 && !simd::Avx2Supported()) continue;
    simd::SetAvx2EnabledForTest(avx2);
    std::vector<std::uint32_t> got(m);
    FenwickFindIndices(views.data(), rs.data(), got.data(), m);
    for (std::size_t d = 0; d < m; ++d) {
      ASSERT_EQ(expect[d], got[d]) << "d=" << d << " avx2=" << avx2;
    }
  }
}

// --- Samtree batch vs one-at-a-time: bit-exact, all dispatch flavours --

class BatchExactnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchExactnessTest, WeightedBatchBitIdenticalToSingleDraws) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {1u, 5u, 40u, 300u, 2000u}) {
    for (std::uint32_t cap : {4u, 8u, 64u}) {
      const Samtree tree = BuildTree(n, cap, seed);
      for (std::size_t k : {1u, 2u, 4u, 16u, 50u, 200u}) {
        std::vector<VertexId> singles;
        Xoshiro256 rng_single(seed ^ k);
        for (std::size_t i = 0; i < k; ++i) {
          singles.push_back(tree.SampleWeighted(rng_single));
        }
        std::vector<VertexId> batch;
        Xoshiro256 rng_batch(seed ^ k);
        tree.SampleWeighted(k, rng_batch, &batch);
        ASSERT_EQ(singles, batch) << "n=" << n << " cap=" << cap
                                  << " k=" << k;
        // Identical RNG consumption: both streams must now be in the
        // same state.
        ASSERT_EQ(rng_single.Next(), rng_batch.Next());
      }
    }
  }
}

TEST_P(BatchExactnessTest, UniformBatchBitIdenticalToSingleDraws) {
  const std::uint64_t seed = GetParam() ^ 0xA5A5;
  for (std::size_t n : {1u, 7u, 129u, 1500u}) {
    const Samtree tree = BuildTree(n, 8, seed);
    for (std::size_t k : {1u, 3u, 16u, 100u}) {
      std::vector<VertexId> singles;
      Xoshiro256 rng_single(seed + k);
      for (std::size_t i = 0; i < k; ++i) {
        singles.push_back(tree.SampleUniform(rng_single));
      }
      std::vector<VertexId> batch;
      Xoshiro256 rng_batch(seed + k);
      tree.SampleUniform(k, rng_batch, &batch);
      ASSERT_EQ(singles, batch) << "n=" << n << " k=" << k;
      ASSERT_EQ(rng_single.Next(), rng_batch.Next());
    }
  }
}

TEST_P(BatchExactnessTest, ScalarAndSimdDispatchProduceIdenticalSamples) {
  if (!simd::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this host";
  DispatchGuard guard;
  const std::uint64_t seed = GetParam() ^ 0xD15;
  const Samtree tree = BuildTree(1200, 8, seed);
  for (std::size_t k : {4u, 16u, 50u, 256u}) {
    std::vector<VertexId> scalar_out, simd_out;
    Xoshiro256 rng_s(seed + k), rng_v(seed + k);
    simd::SetAvx2EnabledForTest(false);
    tree.SampleWeighted(k, rng_s, &scalar_out);
    simd::SetAvx2EnabledForTest(true);
    tree.SampleWeighted(k, rng_v, &simd_out);
    ASSERT_EQ(scalar_out, simd_out) << "k=" << k;
    ASSERT_EQ(rng_s.Next(), rng_v.Next());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExactnessTest,
                         ::testing::Values(11, 222, 3333));

// --- Distribution of the batched path under interleaved updates --------

double ChiSquare(const std::map<VertexId, int>& hits,
                 const std::map<VertexId, Weight>& weights, int draws) {
  const double total = std::accumulate(
      weights.begin(), weights.end(), 0.0,
      [](double acc, const auto& kv) { return acc + kv.second; });
  double chi = 0.0;
  for (const auto& [v, w] : weights) {
    const double expect = draws * w / total;
    if (expect < 1e-9) continue;
    const auto it = hits.find(v);
    const double observed = it == hits.end() ? 0.0 : it->second;
    const double d = observed - expect;
    chi += d * d / expect;
  }
  return chi;
}

TEST(BatchDistribution, WeightedBatchUnbiasedUnderInterleavedUpdates) {
  Xoshiro256 rng(1234);
  Samtree tree(SamtreeConfig{.node_capacity = 8});
  std::map<VertexId, Weight> weights;
  for (VertexId v = 0; v < 150; ++v) {
    const Weight w = 0.05 + rng.NextDouble();
    tree.Insert(v, w);
    weights[v] = w;
  }

  // Three epochs: mutate (inserts + weight updates + removals), then draw
  // batches against the *current* weights. Every epoch must pass its own
  // chi-square — the batched descent may not smear stale structure across
  // mutations.
  VertexId next_id = 150;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int m = 0; m < 60; ++m) {
      const double r = rng.NextDouble();
      if (r < 0.4) {
        const Weight w = 0.05 + rng.NextDouble();
        tree.Insert(next_id, w);
        weights[next_id] = w;
        ++next_id;
      } else if (r < 0.75) {
        auto it = weights.begin();
        std::advance(it, rng.NextUint64(weights.size()));
        const Weight w = 0.05 + rng.NextDouble();
        tree.Update(it->first, w);
        it->second = w;
      } else if (weights.size() > 16) {
        auto it = weights.begin();
        std::advance(it, rng.NextUint64(weights.size()));
        ASSERT_TRUE(tree.Remove(it->first));
        weights.erase(it);
      }
    }
    ASSERT_EQ(tree.size(), weights.size());

    std::map<VertexId, int> hits;
    const int batches = 2500;
    const std::size_t k = 64;
    std::vector<VertexId> out;
    for (int b = 0; b < batches; ++b) {
      out.clear();
      tree.SampleWeighted(k, rng, &out);
      for (VertexId v : out) ++hits[v];
    }
    const int draws = batches * static_cast<int>(k);
    // dof ~ |weights| - 1; 99.9th percentile of chi2(200) is ~ 270 —
    // scale the slack with the support size since it drifts per epoch.
    const double bound = static_cast<double>(weights.size()) * 1.8 + 60.0;
    EXPECT_LT(ChiSquare(hits, weights, draws), bound)
        << "epoch " << epoch << ", support " << weights.size();
  }
}

// --- AliasTable batch (SampleCache hit path) ----------------------------

TEST(AliasTableBatched, SampleBatchMatchesRepeatedSample) {
  Xoshiro256 wrng(55);
  for (std::size_t n : {1u, 2u, 17u, 500u}) {
    const AliasTable alias(RandomWeights(wrng, n));
    for (std::size_t k : {1u, 5u, 64u, 300u}) {
      std::vector<std::uint32_t> batch(k);
      Xoshiro256 r1(n * 1000 + k), r2(n * 1000 + k);
      alias.SampleBatch(k, r1, batch.data());
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(static_cast<std::uint32_t>(alias.Sample(r2)), batch[i]);
      }
      ASSERT_EQ(r1.Next(), r2.Next());
    }
  }
}

// --- Samtree lifecycle (ASan/UBSan-clean by construction) ---------------

TEST(SamtreeLifecycle, BuildMutateSampleDestroyReleasesEverything) {
  Samtree tree = BuildTree(3000, 8, 77);
  SamtreeOpStats& ops = Samtree::ThreadOpStats();
  ops = {};
  // Churn: removals force merges, re-inserts force splits, so nodes are
  // freed and allocated again every round. LeakSanitizer checks that
  // destroying the tree releases all of them.
  Xoshiro256 rng(5);
  for (int round = 0; round < 3; ++round) {
    for (VertexId v = 3; v < 3000 * 7; v += 14) tree.Remove(v);
    for (VertexId v = 3; v < 3000 * 7; v += 14) {
      tree.Insert(v, 0.05 + rng.NextDouble());
    }
    std::vector<VertexId> out;
    tree.SampleWeighted(128, rng, &out);
    EXPECT_EQ(out.size(), 128u);
  }
  EXPECT_GT(ops.merges, 0u);
  EXPECT_GT(ops.leaf_splits, 0u);
  std::string err;
  EXPECT_TRUE(tree.CheckInvariants(&err)) << err;
}

TEST(SamtreeLifecycle, TreeGrownThroughSplitsSamplesLikeSingleDraws) {
  // A tree grown from 500 to 2000 neighbours through several splits keeps
  // its invariants, and the k-draw descent over it matches k single draws.
  Samtree tree = BuildTree(500, 8, 13);
  const std::uint64_t splits_before = Samtree::ThreadOpStats().leaf_splits;
  Xoshiro256 rng(17);
  for (VertexId v = 100000; v < 101500; ++v) {
    tree.Insert(v, 0.05 + rng.NextDouble());
  }
  EXPECT_GT(Samtree::ThreadOpStats().leaf_splits, splits_before);
  std::string err;
  EXPECT_TRUE(tree.CheckInvariants(&err)) << err;

  std::vector<VertexId> singles, batch;
  Xoshiro256 r1(3), r2(3);
  for (int i = 0; i < 64; ++i) singles.push_back(tree.SampleWeighted(r1));
  tree.SampleWeighted(64, r2, &batch);
  EXPECT_EQ(singles, batch);
  EXPECT_EQ(r1.Next(), r2.Next());

  for (VertexId v = 200000; v < 200500; ++v) {
    tree.Insert(v, 0.05 + rng.NextDouble());
  }
  EXPECT_TRUE(tree.CheckInvariants(&err)) << err;
}

}  // namespace
}  // namespace platod2gl
