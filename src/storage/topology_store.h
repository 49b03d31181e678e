// TopologyStore: the dynamic graph-topology layer of PlatoD2GL for one
// edge relation (paper Section IV-B).
//
// A concurrent cuckoo hashmap maps each source vertex to its samtree;
// vertices without out-edges occupy no storage at all (Example 1). All
// mutation entry points are thread-safe per source vertex: two threads
// updating different sources never block each other beyond the map shard
// spinlock.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/types.h"
#include "core/samtree.h"
#include "storage/cuckoo_map.h"

namespace platod2gl {

class TopologyStore {
 public:
  explicit TopologyStore(SamtreeConfig config = {},
                         std::size_t num_shards = 64);

  /// Insert edge (src, dst, w); refreshes the weight if the edge exists.
  void AddEdge(VertexId src, VertexId dst, Weight w);

  /// Bulk-load insert for duplicate-free streams: skips the leaf
  /// duplicate scan (see Samtree::InsertUnchecked).
  void AddEdgeUnchecked(VertexId src, VertexId dst, Weight w);

  /// Install a fully-built samtree (see Samtree::BulkBuild) as src's
  /// neighbourhood. If src already stores edges the tree is merged in
  /// edge-by-edge instead, so no existing data is dropped.
  void InstallTree(VertexId src, Samtree&& tree);

  /// In-place weight update; returns false if the edge does not exist.
  bool UpdateEdge(VertexId src, VertexId dst, Weight w);

  /// Delete an edge; returns false if it does not exist.
  bool RemoveEdge(VertexId src, VertexId dst);

  /// Apply one dynamic update according to its kind.
  void Apply(const EdgeUpdate& update);

  bool HasEdge(VertexId src, VertexId dst) const;
  std::optional<Weight> EdgeWeight(VertexId src, VertexId dst) const;

  /// Out-degree of src (0 when src stores nothing).
  std::size_t Degree(VertexId src) const;

  /// Sum of out-edge weights of src.
  Weight VertexWeight(VertexId src) const;

  /// Current modification stamp of src's samtree (0 when src stores
  /// nothing — real stamps start at 1). Every mutation path — Apply,
  /// AddEdge/UpdateEdge/RemoveEdge, InstallTree's merge, RemoveSource's
  /// reset and the batch updater's direct tree access — advances it, so
  /// derived structures (the hot-vertex sampling cache) can validate
  /// cached state with one load. See Samtree::version().
  std::uint64_t TreeVersion(VertexId src) const {
    const Samtree* tree = trees_.FindUnsafe(src);
    return tree ? tree->version() : 0;
  }

  /// Draw k out-neighbours of src with replacement; returns false (and
  /// leaves *out* untouched) when src has no out-edges.
  bool SampleNeighbors(VertexId src, std::size_t k, bool weighted,
                       Xoshiro256& rng, std::vector<VertexId>* out) const;

  /// Draw up to k *distinct* out-neighbours of src, weighted, without
  /// replacement (see Samtree::SampleWeightedDistinct). Takes the shard
  /// lock for the duration since the tree is temporarily mutated.
  std::vector<VertexId> SampleNeighborsDistinct(VertexId src, std::size_t k,
                                                Xoshiro256& rng);

  /// Remove src and all of its out-edges; returns the number removed.
  std::size_t RemoveSource(VertexId src);

  /// Number of out-neighbours of src with ID in [lo, hi].
  std::size_t CountNeighborsInRange(VertexId src, VertexId lo,
                                    VertexId hi) const;

  /// All (neighbour, weight) pairs of src.
  std::vector<std::pair<VertexId, Weight>> Neighbors(VertexId src) const;

  /// Number of source vertices with at least one out-edge.
  std::size_t NumSources() const { return trees_.Size(); }

  /// Number of live edges.
  std::size_t NumEdges() const {
    // order: stat tally, read for reporting only
    return num_edges_.load(std::memory_order_relaxed);
  }

  /// Edge-counter hooks for external updaters (the batch updater) that
  /// mutate samtrees through FindTree() rather than the Apply() path.
  void NoteEdgeInserted() {
    // order: stat tally, read for reporting only
    num_edges_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteEdgeRemoved() {
    // order: stat tally, read for reporting only
    num_edges_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Get-or-create the samtree of src and return its (heap-pinned)
  /// address. The map access is shard-locked; the returned tree may be
  /// mutated lock-free afterwards by a caller that owns it exclusively
  /// (the batch updater's per-source partitioning guarantees this).
  Samtree* GetOrCreateTree(VertexId src) {
    Samtree* tree = trees_.GetOrCreate(src);
    if (tree->empty()) *tree = Samtree(config_);
    return tree;
  }

  /// Direct samtree access for the batch updater (nullptr when absent).
  /// See CuckooMap::FindUnsafe for the synchronisation contract.
  Samtree* FindTree(VertexId src) { return trees_.FindUnsafe(src); }
  const Samtree* FindTree(VertexId src) const {
    return trees_.FindUnsafe(src);
  }

  /// Get-or-create the samtree of src and run fn on it under the shard
  /// lock.
  template <typename Fn>
  void WithTree(VertexId src, Fn&& fn) {
    trees_.With(src, [&](Samtree& t) {
      // The map default-constructs trees; adopt the store's configuration
      // before the first edge lands (a no-op for non-empty trees).
      if (t.empty()) t = Samtree(config_);
      fn(t);
    });
  }

  /// Visit (source, samtree) pairs. Not thread-safe against writers.
  template <typename Fn>
  void ForEachSource(Fn&& fn) const {
    trees_.ForEach(std::forward<Fn>(fn));
  }

  /// Memory of topology + indexes + map keys (Table IV accounting).
  MemoryBreakdown Memory() const;
  std::size_t MemoryUsage() const { return Memory().Total(); }

  /// Aggregate samtree op counters over all trees (Table V).
  SamtreeOpStats AggregateStats() const;

  /// Verify every samtree's invariants plus the store-level aggregate:
  /// the lock-free edge counter must equal the sum of tree sizes (it is
  /// maintained by every mutation path, including the batch updater's
  /// NoteEdgeInserted/NoteEdgeRemoved hooks, so drift means a missed
  /// hook). Returns true when all hold, otherwise fills *error with the
  /// first failure. O(total edges), quiescent-phase only — test/debug
  /// tooling, not a serving-path call.
  bool CheckAllInvariants(std::string* error) const;

  const SamtreeConfig& config() const { return config_; }

 private:
  SamtreeConfig config_;
  CuckooMap<Samtree> trees_;
  std::atomic<std::size_t> num_edges_{0};
};

}  // namespace platod2gl
