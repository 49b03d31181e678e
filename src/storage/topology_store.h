// TopologyStore: the dynamic graph-topology layer of PlatoD2GL for one
// edge relation (paper Section IV-B).
//
// A concurrent cuckoo hashmap maps each source vertex to its samtree; a
// vertex that never had an out-edge occupies no storage at all (Example
// 1), and a source keeps its emptied samtree after its last edge is
// deleted. The
// per-update mutation entry points are thread-safe per source vertex: two
// threads updating different sources never block each other beyond the
// map shard spinlock. ApplyBatch is the one entry point of every store
// writer — cluster shards, replicas and the streaming micro-batcher — and,
// given a pool, runs the paper's batch-based latch-free update (Section
// VI-B).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/types.h"
#include "core/samtree.h"
#include "storage/cuckoo_map.h"

namespace platod2gl {

class ThreadPool;

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

  /// Apply one dynamic update according to its kind. The sequential
  /// oracle: WAL replay and recovery apply the log through it, and a batch
  /// must leave the store exactly as this would, update by update.
  void Apply(const EdgeUpdate& update);

  /// Apply a batch; the contents equal applying it in order through
  /// Apply. Without a pool it is that loop, on the calling thread, so the
  /// map layout and the snapshot bytes are Apply's too, whatever the batch
  /// boundaries. With a pool it is the PALM-style apply (paper Section
  /// VI-B, Appendix B):
  ///   1. group — sort compact (source, position) keys, so each source's
  ///      updates become one group in arrival order;
  ///   2. apply — in parallel, look each group's samtree up once under its
  ///      map-shard lock, creating it only if the group inserts, and apply
  ///      the group to it with no latch at all.
  /// A tree belongs to one group, so no two threads touch one tree; trees
  /// are created in scheduling order. Trees are mutated without a latch,
  /// so no other writer may touch the batch's sources meanwhile. `pool`
  /// must not be the pool whose task is calling (ParallelFor would wait on
  /// its own worker).
  void ApplyBatch(std::span<const EdgeUpdate> batch,
                  ThreadPool* pool = nullptr);

  bool HasEdge(VertexId src, VertexId dst) const;
  std::optional<Weight> EdgeWeight(VertexId src, VertexId dst) const;

  /// Out-degree of src (0 when src stores nothing).
  std::size_t Degree(VertexId src) const;

  /// Draw k out-neighbours of src with replacement; returns false (and
  /// leaves *out* untouched) when src has no out-edges.
  bool SampleNeighbors(VertexId src, std::size_t k, bool weighted,
                       Xoshiro256& rng, std::vector<VertexId>* out) const;

  /// All (neighbour, weight) pairs of src.
  std::vector<std::pair<VertexId, Weight>> Neighbors(VertexId src) const;

  /// Number of source vertices that ever had an out-edge: a source whose
  /// last edge was deleted keeps its empty samtree and is still counted.
  std::size_t NumSources() const { return trees_.Size(); }

  /// Number of live edges.
  std::size_t NumEdges() const {
    // order: stat tally, read for reporting only
    return num_edges_.load(std::memory_order_relaxed);
  }

  /// Read-only samtree access (nullptr when absent). See
  /// CuckooMap::FindUnsafe for the synchronisation contract.
  const Samtree* FindTree(VertexId src) const {
    return trees_.FindUnsafe(src);
  }

  /// Visit (source, samtree) pairs. Not thread-safe against writers.
  template <typename Fn>
  void ForEachSource(Fn&& fn) const {
    trees_.ForEach(std::forward<Fn>(fn));
  }

  /// Memory of topology + indexes + map keys (Table IV accounting).
  MemoryBreakdown Memory() const;
  std::size_t MemoryUsage() const { return Memory().Total(); }

  /// Verify every samtree's invariants plus the store-level aggregate:
  /// the lock-free edge counter must equal the sum of tree sizes (every
  /// mutation path maintains it, so drift means a path miscounted).
  /// Returns true when all hold, otherwise fills *error with the first
  /// failure. O(total edges), quiescent-phase only — test/debug tooling,
  /// not a serving-path call.
  bool CheckAllInvariants(std::string* error) const;

  /// Skew the edge counter by one edge (invariant-checker negative tests
  /// only): the signature of a mutation path that miscounts.
  void CorruptEdgeCounterForTest() {
    // order: stat tally, read for reporting only
    num_edges_.fetch_add(1, std::memory_order_relaxed);
  }

  const SamtreeConfig& config() const { return config_; }

 private:
  /// Get-or-create the samtree of src and run fn on it under the shard
  /// lock.
  template <typename Fn>
  void WithTree(VertexId src, Fn&& fn) {
    trees_.With(src, [&](Samtree& t) {
      AdoptConfigIfEmpty(t);
      fn(t);
    });
  }

  /// ApplyBatch's grouped, latch-free path (see there).
  void ApplyGrouped(std::span<const EdgeUpdate> batch, ThreadPool& pool);

  /// The map default-constructs trees; adopt the store's configuration
  /// before an edge lands in an empty tree (a no-op for non-empty trees).
  void AdoptConfigIfEmpty(Samtree& t) const {
    if (t.empty()) t = Samtree(config_);
  }

  SamtreeConfig config_;
  CuckooMap<Samtree> trees_;
  std::atomic<std::size_t> num_edges_{0};
};

}  // namespace platod2gl
