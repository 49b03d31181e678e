// GraphStore: the dynamic graph storage layer of PlatoD2GL (paper
// Section III, bottom layer of Figure 2).
//
// A heterogeneous graph keeps one TopologyStore per edge relation (User-
// Live, Live-Tag, ...) plus one AttributeStore for vertex features/labels.
// This facade is the single entry point the TF-operator-equivalent layer
// (src/gnn) and the samplers (src/sampling) talk to.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/types.h"
#include "core/samtree.h"
#include "sampling/sample_cache.h"
#include "storage/attribute_store.h"
#include "storage/topology_store.h"

namespace platod2gl {

struct GraphStoreConfig {
  SamtreeConfig samtree;
  std::size_t num_shards = 64;
  std::size_t num_relations = 1;  ///< number of edge types
  /// Hot-vertex O(1) sampling cache (sampling/sample_cache.h). Enabled by
  /// default; the admission gates keep cold vertices on the samtree
  /// descent, and version checks keep cached tables consistent with
  /// dynamic updates.
  SampleCacheConfig sample_cache;
};

class GraphStore {
 public:
  explicit GraphStore(GraphStoreConfig config = {});

  /// Insert one edge of its relation; refreshes weight if present.
  void AddEdge(const Edge& e);

  /// Apply a single dynamic update: the sequential oracle a batch must
  /// match (see TopologyStore::Apply).
  void Apply(const EdgeUpdate& update);

  /// Apply a batch through each relation's latch-free batch apply
  /// (TopologyStore::ApplyBatch; `pool` is passed through). The contents
  /// equal applying the batch in order through Apply, and without a pool
  /// so do the snapshot bytes.
  void ApplyBatch(std::span<const EdgeUpdate> batch,
                  ThreadPool* pool = nullptr);

  bool HasEdge(VertexId src, VertexId dst, EdgeType type = 0) const;
  std::optional<Weight> EdgeWeight(VertexId src, VertexId dst,
                                   EdgeType type = 0) const;
  std::size_t Degree(VertexId src, EdgeType type = 0) const;

  /// Draw k neighbours of src with replacement. Hot vertices are served
  /// from the O(1) sampling cache when their cached table is still
  /// version-consistent with the samtree; everything else falls back to
  /// the O(log n) ITS+FTS descent.
  bool SampleNeighbors(VertexId src, std::size_t k, bool weighted,
                       Xoshiro256& rng, std::vector<VertexId>* out,
                       EdgeType type = 0) const;
  std::vector<std::pair<VertexId, Weight>> Neighbors(VertexId src,
                                                     EdgeType type = 0) const;

  TopologyStore& topology(EdgeType type = 0) { return *relations_.at(type); }
  const TopologyStore& topology(EdgeType type = 0) const {
    return *relations_.at(type);
  }
  AttributeStore& attributes() { return attributes_; }
  const AttributeStore& attributes() const { return attributes_; }

  /// The hot-vertex sampling cache, or nullptr when disabled.
  SampleCache* sample_cache() const { return sample_cache_.get(); }

  std::size_t num_relations() const { return relations_.size(); }

  /// Live edges across all relations.
  std::size_t NumEdges() const;

  /// Topology-layer memory across all relations (Table IV accounting;
  /// attributes are reported separately since every system stores them the
  /// same way).
  MemoryBreakdown TopologyMemory() const;

  const GraphStoreConfig& config() const { return config_; }

 private:
  GraphStoreConfig config_;
  std::vector<std::unique_ptr<TopologyStore>> relations_;
  AttributeStore attributes_;
  // Mutable derived state (internally synchronised): consulted and
  // refreshed from the const sampling path.
  std::unique_ptr<SampleCache> sample_cache_;
};

}  // namespace platod2gl
