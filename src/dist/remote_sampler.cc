#include "dist/remote_sampler.h"

#include <algorithm>

namespace platod2gl {

RemoteSampleReport RemoteSubgraphSampler::SampleWithReport(
    const std::vector<VertexId>& seeds,
    const std::vector<SubgraphSampler::Hop>& hops, std::uint64_t seed) {
  RemoteSampleReport report;
  SampledSubgraph& sg = report.subgraph;
  sg.layers.push_back(seeds);

  std::uint64_t round = 0;
  for (const SubgraphSampler::Hop& hop : hops) {
    // One batched (retrying) RPC round for the whole frontier.
    SampleReport hop_result = cluster_->SampleNeighborsChecked(
        sg.layers.back(), hop.fanout, hop.weighted,
        seed ^ (0x9E3779B97F4A7C15ULL * ++round), hop.edge_type);
    NeighborBatch& batch = hop_result.batch;

    // The batch's draws, in seed order, are the next layer as they stand;
    // each range's seed index is its children's parent.
    std::uint64_t degraded = 0;
    std::vector<std::uint32_t> parents(batch.neighbors.size());
    for (std::size_t i = 0; i + 1 < batch.offsets.size(); ++i) {
      if (hop_result.seed_status[i] == SeedStatus::kDegraded) ++degraded;
      std::fill(parents.begin() + static_cast<std::ptrdiff_t>(batch.offsets[i]),
                parents.begin() +
                    static_cast<std::ptrdiff_t>(batch.offsets[i + 1]),
                static_cast<std::uint32_t>(i));
    }
    report.degraded_frontier.push_back(degraded);
    report.degraded_total += degraded;
    sg.layers.push_back(std::move(batch.neighbors));
    sg.parents.push_back(std::move(parents));
  }
  return report;
}

}  // namespace platod2gl
