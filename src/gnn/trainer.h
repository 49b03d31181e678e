// Trainer: the end-to-end dynamic GNN training loop of Figure 1 —
// node-sample a minibatch, subgraph-sample its 2-hop neighbourhood from
// the (possibly concurrently updated) dynamic graph store, gather
// features, and run a GraphSAGE step.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "gnn/model.h"
#include "sampling/node_sampler.h"
#include "sampling/subgraph_sampler.h"
#include "storage/graph_store.h"

namespace platod2gl {

struct TrainerConfig {
  std::size_t batch_size = 128;
  std::size_t fanout_hop1 = 10;
  std::size_t fanout_hop2 = 10;
  bool weighted_sampling = true;
  EdgeType edge_type = 0;
  float learning_rate = 0.01f;
};

class Trainer {
 public:
  /// The graph (topology + attributes) and model are borrowed and must
  /// outlive the trainer.
  Trainer(const GraphStore* graph, GraphSageModel* model,
          TrainerConfig config);

  /// One minibatch step on the given seeds; labels/features come from the
  /// graph's attribute store.
  GraphSageModel::StepResult TrainStep(const std::vector<VertexId>& seeds,
                                       Xoshiro256& rng);

  /// One step on a uniformly node-sampled minibatch.
  GraphSageModel::StepResult TrainStepSampled(Xoshiro256& rng);

  GraphSageModel::StepResult Evaluate(const std::vector<VertexId>& seeds,
                                      Xoshiro256& rng) const;

  /// Re-snapshot the node sampler after topology changes.
  void RefreshNodeSampler() { node_sampler_.Refresh(); }

 private:
  /// Build model inputs (subgraph + per-layer feature tensors + labels).
  void Prepare(const std::vector<VertexId>& seeds, Xoshiro256& rng,
               GraphSageModel::Inputs* in,
               std::vector<std::int64_t>* labels) const;

  const GraphStore* graph_;
  GraphSageModel* model_;
  TrainerConfig config_;
  SubgraphSampler subgraph_sampler_;
  NodeSampler node_sampler_;
};

}  // namespace platod2gl
