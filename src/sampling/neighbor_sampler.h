// NeighborSampler: the "neighbor sampling" operator of PlatoD2GL's
// TF-based operator layer (paper Section III): for every vertex of a
// minibatch, draw a fixed number of (weighted or uniform) out-neighbours.
//
// Results come back in the flat layout GNN kernels consume: one vector of
// sampled IDs plus per-seed offsets, so layer l+1's gather is a single
// contiguous pass.
#pragma once

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "storage/graph_store.h"

namespace platod2gl {

/// Flat batched sampling result: neighbours of seed i live at
/// [offsets[i], offsets[i+1]) in `neighbors`.
struct NeighborBatch {
  std::vector<VertexId> neighbors;
  std::vector<std::size_t> offsets;  // size = #seeds + 1

  std::size_t NumSeeds() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

/// Per-seed delivery status of a batched sampling call served by a
/// fault-prone backend (dist/cluster.h). kDegraded marks a seed whose
/// owning shard could not be reached within the retry budget / deadline:
/// by contract its range in the batch is empty (the degraded-result
/// marker), distinguishable from a genuinely isolated vertex only through
/// this status — callers that care must check it. kStale marks a seed
/// served by a read replica after its primary failed (docs/replication.md):
/// the range is real neighbour data, at most `staleness_budget` log
/// entries behind the primary (and exact when the replica was caught up).
enum class SeedStatus : std::uint8_t { kOk = 0, kDegraded = 1, kStale = 2 };

class NeighborSampler {
 public:
  struct Options {
    std::size_t fanout = 50;   ///< samples per seed (paper uses 50)
    bool weighted = true;      ///< weighted vs uniform
    EdgeType edge_type = 0;    ///< relation to traverse
  };

  explicit NeighborSampler(const GraphStore* graph) : graph_(graph) {}

  /// Sample neighbours for every seed. Seeds without out-edges contribute
  /// an empty range.
  NeighborBatch Sample(const std::vector<VertexId>& seeds,
                       const Options& options, Xoshiro256& rng) const;

 private:
  const GraphStore* graph_;
};

}  // namespace platod2gl
