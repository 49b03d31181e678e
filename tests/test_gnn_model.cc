// GraphSAGE model + trainer tests: the model must learn a graph-structured
// toy task where the label is only recoverable through neighbour
// aggregation — proving the sampler -> gather -> aggregate path works.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/random.h"
#include "gnn/model.h"
#include "gnn/gcn_model.h"
#include "gnn/trainer.h"
#include "sampling/node_sampler.h"
#include "storage/graph_store.h"

namespace platod2gl {
namespace {

// Community graph: vertices split into k communities; edges stay within a
// community; features are noisy one-hot community indicators on *neighbours
// only* (seeds get pure noise), labels are the community. The model can
// only classify by aggregating neighbour features.
struct CommunityGraph {
  GraphStore graph;
  std::vector<VertexId> train_seeds;
  std::vector<VertexId> test_seeds;
};

std::unique_ptr<CommunityGraph> MakeCommunityGraph(std::size_t communities,
                                                   std::size_t size,
                                                   std::size_t dim,
                                                   std::uint64_t seed) {
  auto cg_ptr = std::make_unique<CommunityGraph>();
  CommunityGraph& cg = *cg_ptr;
  Xoshiro256 rng(seed);
  const std::size_t n = communities * size;
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t comm = v / size;
    // ~8 random intra-community neighbours.
    for (int k = 0; k < 8; ++k) {
      const VertexId u = comm * size + rng.NextUint64(size);
      if (u != v) cg.graph.AddEdge({v, u, 1.0, 0});
    }
    std::vector<float> f(dim, 0.0f);
    for (std::size_t d = 0; d < dim; ++d) {
      f[d] = static_cast<float>(rng.NextDouble() * 0.4 - 0.2);
    }
    f[comm % dim] += 1.0f;  // community signal
    cg.graph.attributes().SetFeatures(v, std::move(f));
    cg.graph.attributes().SetLabel(v, static_cast<std::int64_t>(comm));
    (v % 5 == 0 ? cg.test_seeds : cg.train_seeds).push_back(v);
  }
  return cg_ptr;
}

TEST(GraphSageModelTest, ForwardShapes) {
  GraphSageConfig cfg{.in_dim = 4, .hidden_dim = 6, .num_classes = 3};
  GraphSageModel model(cfg);

  SampledSubgraph sg;
  sg.layers = {{1, 2}, {3, 4, 5}, {6, 7, 8, 9}};
  sg.parents = {{0, 0, 1}, {0, 1, 2, 2}};
  GraphSageModel::Inputs in;
  in.sg = &sg;
  in.features = {Tensor(2, 4, 0.1f), Tensor(3, 4, 0.2f), Tensor(4, 4, 0.3f)};

  const Tensor logits = model.Forward(in, nullptr);
  EXPECT_EQ(logits.rows(), 2u);
  EXPECT_EQ(logits.cols(), 3u);
}

TEST(GraphSageModelTest, TrainStepReducesLossOnFixedBatch) {
  GraphSageConfig cfg{.in_dim = 4, .hidden_dim = 8, .num_classes = 2};
  GraphSageModel model(cfg, /*seed=*/7);

  SampledSubgraph sg;
  sg.layers = {{1, 2}, {3, 4}, {5, 6, 7, 8}};
  sg.parents = {{0, 1}, {0, 0, 1, 1}};
  GraphSageModel::Inputs in;
  in.sg = &sg;
  Xoshiro256 rng(9);
  in.features = {Tensor::Glorot(2, 4, rng), Tensor::Glorot(2, 4, rng),
                 Tensor::Glorot(4, 4, rng)};
  const std::vector<std::int64_t> labels = {0, 1};

  const double first = model.Evaluate(in, labels).loss;
  double last = first;
  for (int step = 0; step < 100; ++step) {
    last = model.TrainStep(in, labels, 0.02f).loss;
  }
  EXPECT_LT(last, first * 0.5) << "must overfit a single fixed batch";
}

TEST(TrainerTest, EndToEndLearnsCommunityTask) {
  auto cg_ptr = MakeCommunityGraph(/*communities=*/4, /*size=*/100,
                                         /*dim=*/8, /*seed=*/42);
  CommunityGraph& cg = *cg_ptr;
  GraphSageConfig cfg{.in_dim = 8, .hidden_dim = 16, .num_classes = 4};
  GraphSageModel model(cfg, 11);
  Trainer trainer(&cg.graph, &model,
                  TrainerConfig{.batch_size = 64,
                                .fanout_hop1 = 8,
                                .fanout_hop2 = 8,
                                .learning_rate = 0.01f});
  Xoshiro256 rng(13);

  const auto before = trainer.Evaluate(cg.test_seeds, rng);
  for (int epoch = 0; epoch < 60; ++epoch) {
    trainer.TrainStepSampled(rng);
  }
  const auto after = trainer.Evaluate(cg.test_seeds, rng);

  EXPECT_LT(after.loss, before.loss);
  EXPECT_GT(after.accuracy, 0.85)
      << "4 separable communities must be nearly solved (started at ~"
      << before.accuracy << ")";
}

TEST(TrainerTest, TrainingContinuesThroughDynamicUpdates) {
  // The dynamic-graph property (Figure 1): topology changes between
  // steps must not break training.
  auto cg_ptr = MakeCommunityGraph(2, 80, 8, 21);
  CommunityGraph& cg = *cg_ptr;
  GraphSageConfig cfg{.in_dim = 8, .hidden_dim = 8, .num_classes = 2};
  GraphSageModel model(cfg, 3);
  Trainer trainer(&cg.graph, &model, TrainerConfig{.batch_size = 32,
                                                   .learning_rate = 0.01f});
  Xoshiro256 rng(4);
  for (int step = 0; step < 30; ++step) {
    const auto r = trainer.TrainStepSampled(rng);
    EXPECT_TRUE(std::isfinite(r.loss));
    // Interleave topology mutations (new intra-community edges).
    const VertexId v = rng.NextUint64(160);
    const VertexId u = (v / 80) * 80 + rng.NextUint64(80);
    cg.graph.AddEdge({v, u, 1.0, 0});
    if (step % 10 == 0) trainer.RefreshNodeSampler();
  }
}

TEST(TrainerTest, EvaluateDoesNotTrain) {
  auto cg_ptr = MakeCommunityGraph(2, 50, 8, 33);
  CommunityGraph& cg = *cg_ptr;
  GraphSageConfig cfg{.in_dim = 8, .hidden_dim = 8, .num_classes = 2};
  GraphSageModel model(cfg, 5);
  Trainer trainer(&cg.graph, &model, TrainerConfig{});
  Xoshiro256 rng_a(6), rng_b(6);
  const auto r1 = trainer.Evaluate(cg.test_seeds, rng_a);
  const auto r2 = trainer.Evaluate(cg.test_seeds, rng_b);
  EXPECT_DOUBLE_EQ(r1.loss, r2.loss) << "evaluation must be side-effect-free";
}


TEST(GcnModelTest, ForwardShapes) {
  GraphSageConfig cfg{.in_dim = 4, .hidden_dim = 6, .num_classes = 3};
  GcnModel model(cfg);
  SampledSubgraph sg;
  sg.layers = {{1, 2}, {3, 4, 5}, {6, 7, 8, 9}};
  sg.parents = {{0, 0, 1}, {0, 1, 2, 2}};
  GraphSageModel::Inputs in;
  in.sg = &sg;
  in.features = {Tensor(2, 4, 0.1f), Tensor(3, 4, 0.2f), Tensor(4, 4, 0.3f)};
  const Tensor logits = model.Forward(in);
  EXPECT_EQ(logits.rows(), 2u);
  EXPECT_EQ(logits.cols(), 3u);
}

TEST(GcnModelTest, OverfitsFixedBatch) {
  GraphSageConfig cfg{.in_dim = 4, .hidden_dim = 8, .num_classes = 2};
  GcnModel model(cfg, /*seed=*/7);
  SampledSubgraph sg;
  sg.layers = {{1, 2}, {3, 4}, {5, 6, 7, 8}};
  sg.parents = {{0, 1}, {0, 0, 1, 1}};
  GraphSageModel::Inputs in;
  in.sg = &sg;
  Xoshiro256 rng(9);
  in.features = {Tensor::Glorot(2, 4, rng), Tensor::Glorot(2, 4, rng),
                 Tensor::Glorot(4, 4, rng)};
  const std::vector<std::int64_t> labels = {0, 1};
  const double first = model.Evaluate(in, labels).loss;
  double last = first;
  for (int step = 0; step < 150; ++step) {
    last = model.TrainStep(in, labels, 0.02f).loss;
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(GcnModelTest, LearnsCommunityTaskLikeSage) {
  auto cg_ptr = MakeCommunityGraph(4, 100, 8, 77);
  CommunityGraph& cg = *cg_ptr;
  GraphSageConfig cfg{.in_dim = 8, .hidden_dim = 16, .num_classes = 4};
  GcnModel model(cfg, 11);

  SubgraphSampler sampler(&cg.graph);
  Xoshiro256 rng(13);
  auto prepare = [&](const std::vector<VertexId>& seeds,
                     SampledSubgraph* sg, GraphSageModel::Inputs* in,
                     std::vector<std::int64_t>* labels) {
    *sg = sampler.Sample(seeds, {{.fanout = 8}, {.fanout = 8}}, rng);
    in->sg = sg;
    in->features.clear();
    std::vector<float> buf;
    for (const auto& layer : sg->layers) {
      cg.graph.attributes().GatherFeatures(layer, 8, &buf);
      Tensor t(layer.size(), 8);
      std::copy(buf.begin(), buf.end(), t.data());
      in->features.push_back(std::move(t));
    }
    labels->clear();
    for (VertexId v : seeds) {
      labels->push_back(cg.graph.attributes().GetLabel(v).value_or(-1));
    }
  };

  NodeSampler nodes(&cg.graph.topology(0));
  for (int epoch = 0; epoch < 60; ++epoch) {
    const auto seeds = nodes.SampleUniform(64, rng);
    SampledSubgraph sg;
    GraphSageModel::Inputs in;
    std::vector<std::int64_t> labels;
    prepare(seeds, &sg, &in, &labels);
    model.TrainStep(in, labels, 0.01f);
  }

  SampledSubgraph sg;
  GraphSageModel::Inputs in;
  std::vector<std::int64_t> labels;
  prepare(cg.test_seeds, &sg, &in, &labels);
  const auto eval = model.Evaluate(in, labels);
  EXPECT_GT(eval.accuracy, 0.85);
}

}  // namespace
}  // namespace platod2gl
