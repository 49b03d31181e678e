// SubgraphSampler: the "subgraph sampling" operator (paper Section III) —
// K-hop neighbourhood expansion pivoted at seed vertices, plus the
// multi-hop meta-path sampling used by heterogeneous GNNs (Section VII-C,
// Fig. 10(d-f) samples 2-hop subgraphs).
//
// The result keeps per-hop layers with parent links, which is the layout
// the GraphSAGE trainer aggregates bottom-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "storage/graph_store.h"

namespace platod2gl {

/// Layered K-hop sample. layers[0] are the seeds; node j of layer l+1 was
/// drawn from the neighbourhood of layers[l][parents[l][j]].
struct SampledSubgraph {
  std::vector<std::vector<VertexId>> layers;
  std::vector<std::vector<std::uint32_t>> parents;  // size = layers-1

  std::size_t NumHops() const {
    return layers.empty() ? 0 : layers.size() - 1;
  }
  std::size_t TotalVertices() const {
    std::size_t n = 0;
    for (const auto& l : layers) n += l.size();
    return n;
  }
};

class SubgraphSampler {
 public:
  /// One hop of the expansion: which relation to walk and how many
  /// neighbours to draw per frontier vertex. A meta-path is simply a
  /// sequence of hops with different edge types.
  struct Hop {
    std::size_t fanout = 10;
    EdgeType edge_type = 0;
    bool weighted = true;
  };

  explicit SubgraphSampler(const GraphStore* graph) : graph_(graph) {}

  /// Expand `seeds` through `hops` (e.g. {25, 10} for the classic 2-hop
  /// GraphSAGE fan-out). Frontier vertices without out-edges simply stop
  /// expanding.
  SampledSubgraph Sample(const std::vector<VertexId>& seeds,
                         const std::vector<Hop>& hops, Xoshiro256& rng) const;

 private:
  const GraphStore* graph_;
};

}  // namespace platod2gl
