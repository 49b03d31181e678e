#include "gnn/trainer.h"

namespace platod2gl {

Trainer::Trainer(const GraphStore* graph, GraphSageModel* model,
                 TrainerConfig config)
    : graph_(graph),
      model_(model),
      config_(config),
      subgraph_sampler_(graph),
      node_sampler_(&graph->topology(config.edge_type)) {}

void Trainer::Prepare(const std::vector<VertexId>& seeds, Xoshiro256& rng,
                      GraphSageModel::Inputs* in,
                      std::vector<std::int64_t>* labels) const {
  static thread_local SampledSubgraph sg;
  sg = subgraph_sampler_.Sample(
      seeds,
      {{.fanout = config_.fanout_hop1,
        .edge_type = config_.edge_type,
        .weighted = config_.weighted_sampling},
       {.fanout = config_.fanout_hop2,
        .edge_type = config_.edge_type,
        .weighted = config_.weighted_sampling}},
      rng);

  const std::size_t dim = model_->config().in_dim;
  in->sg = &sg;
  in->features.clear();
  std::vector<float> buf;
  for (const auto& layer : sg.layers) {
    graph_->attributes().GatherFeatures(layer, dim, &buf);
    Tensor t(layer.size(), dim);
    std::copy(buf.begin(), buf.end(), t.data());
    in->features.push_back(std::move(t));
  }

  labels->clear();
  labels->reserve(seeds.size());
  for (VertexId v : seeds) {
    labels->push_back(graph_->attributes().GetLabel(v).value_or(-1));
  }
}

GraphSageModel::StepResult Trainer::TrainStep(
    const std::vector<VertexId>& seeds, Xoshiro256& rng) {
  GraphSageModel::Inputs in;
  std::vector<std::int64_t> labels;
  Prepare(seeds, rng, &in, &labels);
  return model_->TrainStep(in, labels, config_.learning_rate);
}

GraphSageModel::StepResult Trainer::TrainStepSampled(Xoshiro256& rng) {
  return TrainStep(node_sampler_.SampleUniform(config_.batch_size, rng), rng);
}

GraphSageModel::StepResult Trainer::Evaluate(
    const std::vector<VertexId>& seeds, Xoshiro256& rng) const {
  GraphSageModel::Inputs in;
  std::vector<std::int64_t> labels;
  Prepare(seeds, rng, &in, &labels);
  return model_->Evaluate(in, labels);
}

}  // namespace platod2gl
