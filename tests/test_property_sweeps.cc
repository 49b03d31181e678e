// Cross-module parameterized property sweeps:
//  * FSTable and CSTable are interchangeable prefix-sum representations —
//    under identical edit scripts they must agree on every prefix at
//    every size;
//  * layer gradient checks across a grid of layer widths (each width is a
//    distinct numerical regime for the hand-derived backward passes);
//  * determinism guarantees (same seed => identical samples);
//  * temporal replay through the latch-free batch updater.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gen/generators.h"
#include "gnn/layers.h"
#include "index/cstable.h"
#include "index/fstable.h"
#include "storage/graph_store.h"
#include "temporal/edge_log.h"

namespace platod2gl {
namespace {

// --- FSTable vs CSTable differential ---------------------------------------

class TableEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(TableEquivalence, IdenticalPrefixSumsUnderSharedScript) {
  const auto [n0, seed] = GetParam();
  Xoshiro256 rng(seed);

  std::vector<Weight> init;
  for (std::size_t i = 0; i < n0; ++i) init.push_back(0.05 + rng.NextDouble());
  FSTable fs(init);
  CSTable cs(init);

  for (int step = 0; step < 300; ++step) {
    const double r = rng.NextDouble();
    if (fs.empty() || r < 0.4) {
      const Weight w = 0.05 + rng.NextDouble();
      fs.Append(w);
      cs.Append(w);
    } else if (r < 0.8) {
      const std::size_t i = rng.NextUint64(fs.size());
      const Weight w = 0.05 + rng.NextDouble();
      fs.UpdateWeight(i, w);
      cs.UpdateWeight(i, w);
    } else {
      // FSTable's native delete is swap-with-last; mirror it on the
      // CSTable so both represent the same (reordered) array.
      const std::size_t i = rng.NextUint64(fs.size());
      const Weight last = cs.WeightAt(cs.size() - 1);
      fs.RemoveSwapLast(i);
      if (i != cs.size() - 1) cs.UpdateWeight(i, last);
      cs.Remove(cs.size() - 1);
    }
    ASSERT_EQ(fs.size(), cs.size());
    for (std::size_t i = 0; i < fs.size(); ++i) {
      ASSERT_NEAR(fs.Prefix(i), cs.Prefix(i), 1e-6) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TableEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{7}, std::size_t{64},
                                         std::size_t{500}),
                       ::testing::Values(1ull, 99ull)));

// --- gradient checks across layer widths ------------------------------------

class LayerWidthSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(LayerWidthSweep, DenseGradientsMatchNumeric) {
  const auto [in_dim, out_dim] = GetParam();
  Xoshiro256 rng(31 + in_dim * 100 + out_dim);
  Dense fc(in_dim, out_dim, rng);
  Tensor x = Tensor::Glorot(3, in_dim, rng);
  std::vector<std::int64_t> labels;
  for (int i = 0; i < 3; ++i) {
    labels.push_back(static_cast<std::int64_t>(i % out_dim));
  }

  fc.ZeroGrad();
  const SoftmaxCEResult ce = SoftmaxCrossEntropy(fc.Forward(x), labels);
  fc.Backward(x, ce.grad_logits);

  auto loss_fn = [&](const Dense& layer) {
    return SoftmaxCrossEntropy(layer.Forward(x), labels).loss;
  };
  const float eps = 1e-3f;
  // Spot-check a diagonal stripe of the weight matrix.
  for (std::size_t k = 0; k < std::min(in_dim, out_dim); ++k) {
    Dense plus = fc, minus = fc;
    plus.weights()(k, k) += eps;
    minus.weights()(k, k) -= eps;
    const double num = (loss_fn(plus) - loss_fn(minus)) / (2.0 * eps);
    EXPECT_NEAR(fc.weight_grad()(k, k), num, 5e-3)
        << in_dim << "x" << out_dim << " @ " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, LayerWidthSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{16}, std::size_t{64}),
                       ::testing::Values(std::size_t{2}, std::size_t{8},
                                         std::size_t{32})));

// --- determinism -------------------------------------------------------------

TEST(DeterminismTest, SamtreeSamplingReproducesUnderSameSeed) {
  Samtree t(SamtreeConfig{.node_capacity = 8});
  Xoshiro256 gen(8);
  for (int i = 0; i < 1000; ++i) {
    t.Insert(gen.NextUint64(5000), 0.1 + gen.NextDouble());
  }
  Xoshiro256 a(9), b(9);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(t.SampleWeighted(a), t.SampleWeighted(b));
  }
}

// --- temporal replay through the concurrent updater --------------------------

TEST(TemporalConcurrencyTest, WindowReplayViaLatchFreeBatches) {
  // Build the log.
  TemporalEdgeLog log;
  Xoshiro256 gen(11);
  UniformParams up;
  up.num_vertices = 300;
  up.num_edges = 3000;
  auto base = GenerateUniform(up);
  DedupEdges(&base);
  std::uint64_t t = 0;
  for (const Edge& e : base) log.AppendInsert(++t, e);
  UpdateStreamParams sp;
  sp.num_ops = 2000;
  for (const EdgeUpdate& u : MakeUpdateStream(base, sp)) log.Append(++t, u);

  // Sequential reference.
  GraphStore reference;
  log.SnapshotInto(&reference, t);

  // Concurrent: pull the log in windows and apply each window as a
  // latch-free batch.
  GraphStore concurrent;
  ThreadPool pool(4);
  const std::uint64_t window = t / 7 + 1;
  for (std::uint64_t from = 0; from < t; from += window) {
    std::vector<EdgeUpdate> batch;
    for (const TimedUpdate& tu :
         log.Window(from, std::min(t, from + window))) {
      batch.push_back(tu.update);
    }
    concurrent.ApplyBatch(batch, &pool);
  }

  EXPECT_EQ(concurrent.NumEdges(), reference.NumEdges());
  std::string err;
  EXPECT_TRUE(concurrent.topology(0).CheckAllInvariants(&err)) << err;
  reference.topology(0).ForEachSource([&](VertexId s, const Samtree& tree) {
    tree.ForEachNeighbor([&](VertexId d, Weight w) {
      const auto got = concurrent.EdgeWeight(s, d);
      ASSERT_TRUE(got.has_value()) << s << "->" << d;
      ASSERT_NEAR(*got, w, 1e-9) << s << "->" << d;
    });
  });
}

}  // namespace
}  // namespace platod2gl
