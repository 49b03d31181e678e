#include "sampling/neighbor_sampler.h"

namespace platod2gl {

NeighborBatch NeighborSampler::Sample(const std::vector<VertexId>& seeds,
                                      const Options& options,
                                      Xoshiro256& rng) const {
  NeighborBatch batch;
  batch.offsets.reserve(seeds.size() + 1);
  batch.offsets.push_back(0);
  batch.neighbors.reserve(seeds.size() * options.fanout);
  for (VertexId seed : seeds) {
    graph_->SampleNeighbors(seed, options.fanout, options.weighted, rng,
                            &batch.neighbors, options.edge_type);
    batch.offsets.push_back(batch.neighbors.size());
  }
  return batch;
}

}  // namespace platod2gl
