#include "sampling/subgraph_sampler.h"

#include <utility>

namespace platod2gl {

SampledSubgraph SubgraphSampler::Sample(const std::vector<VertexId>& seeds,
                                        const std::vector<Hop>& hops,
                                        Xoshiro256& rng) const {
  SampledSubgraph sg;
  sg.layers.push_back(seeds);

  std::vector<VertexId> scratch;
  for (const Hop& hop : hops) {
    const std::vector<VertexId>& frontier = sg.layers.back();
    std::vector<VertexId> next;
    std::vector<std::uint32_t> parents;
    next.reserve(frontier.size() * hop.fanout);
    parents.reserve(frontier.size() * hop.fanout);

    for (std::size_t i = 0; i < frontier.size(); ++i) {
      scratch.clear();
      if (!graph_->SampleNeighbors(frontier[i], hop.fanout, hop.weighted,
                                   rng, &scratch, hop.edge_type)) {
        continue;  // dangling frontier vertex: no expansion
      }
      for (VertexId v : scratch) {
        next.push_back(v);
        parents.push_back(static_cast<std::uint32_t>(i));
      }
    }
    sg.layers.push_back(std::move(next));
    sg.parents.push_back(std::move(parents));
  }
  return sg;
}

}  // namespace platod2gl
