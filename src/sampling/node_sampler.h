// NodeSampler: the "node sampling" operator (paper Section III) — draw a
// set of vertices from the whole graph uniformly at random (the seeds of a
// GNN training minibatch).
//
// The sampler snapshots the source-vertex population once (O(V)); the
// snapshot is refreshed explicitly so minibatch loops pay O(1) per draw.
#pragma once

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "storage/topology_store.h"

namespace platod2gl {

class NodeSampler {
 public:
  explicit NodeSampler(const TopologyStore* store) : store_(store) {
    Refresh();
  }

  /// Re-snapshot the vertex population after topology changes.
  void Refresh();

  std::size_t population() const { return vertices_.size(); }

  /// k vertices uniformly at random (with replacement).
  std::vector<VertexId> SampleUniform(std::size_t k, Xoshiro256& rng) const;

 private:
  const TopologyStore* store_;
  std::vector<VertexId> vertices_;
};

}  // namespace platod2gl
