#include "sampling/node_sampler.h"

namespace platod2gl {

void NodeSampler::Refresh() {
  vertices_.clear();
  store_->ForEachSource([&](VertexId v, const Samtree& tree) {
    if (!tree.empty()) vertices_.push_back(v);
  });
}

std::vector<VertexId> NodeSampler::SampleUniform(std::size_t k,
                                                 Xoshiro256& rng) const {
  std::vector<VertexId> out;
  if (vertices_.empty()) return out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(vertices_[rng.NextUint64(vertices_.size())]);
  }
  return out;
}

}  // namespace platod2gl
