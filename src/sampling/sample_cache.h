// SampleCache: O(1) hot-vertex neighbour sampling over the dynamic
// samtree store.
//
// Production minibatch traffic is heavily power-law skewed: a small set of
// high-degree vertices absorbs most SampleNeighbors calls. The samtree
// descent is O(log n) per draw — the right trade-off for *dynamic*
// neighbourhoods, but pure overhead when the same hot neighbourhood is
// sampled thousands of times between updates. This cache keeps, per
// (vertex, edge relation), a flat neighbour-ID array plus a Walker/Vose
// alias table, giving AliGraph-style O(1) draws (uniform and weighted)
// without giving up dynamic updates:
//
//  * Correctness — each entry is stamped with Samtree::version() at build
//    time. Every tree mutation stores a fresh process-unique stamp, so a
//    hit is valid iff the entry's stamp still equals the tree's. Stale
//    entries are rebuilt lazily off the tree; the update path itself pays
//    only one relaxed atomic increment.
//  * Admission — entries are built only for vertices whose degree clears
//    `min_degree` AND that have already missed `admit_after_misses` times,
//    so one-off cold lookups never pollute the cache or pay the O(n)
//    build.
//  * Bounded memory — capacity is split across spinlocked shards, each an
//    LRU; concurrency comes from sharding plus immutable shared_ptr
//    entries (draws happen outside the shard lock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "core/samtree.h"
#include "obs/metrics.h"

namespace platod2gl {

struct SampleCacheConfig {
  bool enabled = true;
  std::size_t capacity = 1 << 16;   ///< max entries across all shards
  std::size_t num_shards = 16;
  std::size_t min_degree = 128;     ///< admission: degree gate
  std::uint32_t admit_after_misses = 2;  ///< admission: traffic gate
};

/// The cache's tallies, one row each: exported as
/// pd2gl_sample_cache_<name> by SampleCache::RegisterWith() and snapshotted
/// into SampleCacheStats by SampleCache::Stats().
#define PD2GL_SAMPLE_CACHE_COUNTERS(X)                                         \
  X(hits)         /* served from a valid entry */                              \
  X(misses)       /* no entry for the key */                                   \
  X(stale_hits)   /* entry found but version mismatched */                     \
  X(rebuilds)     /* stale entries rebuilt in place */                         \
  X(admissions)   /* entries built for new keys */                             \
  X(evictions)    /* entries dropped by LRU pressure */                        \
  X(cold_rejects) /* misses gated out by admission */

/// Stats() subtracts the ResetStats() baseline, so the numbers here are
/// window deltas while the registry series stay monotone.
struct SampleCacheStats {
  PD2GL_SAMPLE_CACHE_COUNTERS(PD2GL_STATS_FIELD)

  double HitRate() const {
    const std::uint64_t total = hits + stale_hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

class SampleCache {
 public:
  explicit SampleCache(SampleCacheConfig config = {});
  ~SampleCache();

  SampleCache(const SampleCache&) = delete;
  SampleCache& operator=(const SampleCache&) = delete;

  /// Try to serve k draws (with replacement) from (v, type)'s cached
  /// table, validating against `tree`'s current version. On a valid hit
  /// the draws are appended to *out and true is returned. On a stale hit
  /// the entry is rebuilt from the tree and served. On a miss the
  /// admission gates decide whether to build; a gated-out miss returns
  /// false and the caller runs the samtree descent.
  bool Sample(VertexId v, EdgeType type, const Samtree& tree, bool weighted,
              std::size_t k, Xoshiro256& rng, std::vector<VertexId>* out);

  /// Drop every entry (admission history included). Stats survive.
  void Clear();

  std::size_t size() const;
  std::size_t MemoryUsage() const;

  SampleCacheStats Stats() const;
  /// Restart the Stats() window (baseline snapshot — the underlying
  /// counters stay monotone for registry exports). Not synchronised with
  /// concurrent samplers; call from the owner's serial sections.
  void ResetStats();

  /// Expose the tallies as pd2gl_sample_cache_* series of `registry`
  /// (labels identify the owning shard). The cache must outlive the
  /// registry entries, or be replaced in them by registering its
  /// successor under the same labels.
  void RegisterWith(obs::MetricRegistry* registry,
                    const obs::Labels& labels) const;

  const SampleCacheConfig& config() const { return config_; }

 private:
  struct Entry;
  struct Shard;

  Shard& ShardFor(VertexId v, EdgeType type);

  std::shared_ptr<const Entry> BuildEntry(const Samtree& tree) const;

  SampleCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_capacity_ = 0;

  // The live tallies, one owned obs::Counter per list row.
#define PD2GL_SAMPLE_CACHE_TALLY(name) obs::Counter name;
  struct {
    PD2GL_SAMPLE_CACHE_COUNTERS(PD2GL_SAMPLE_CACHE_TALLY)
  } tallies_;
#undef PD2GL_SAMPLE_CACHE_TALLY
  /// Counter values at the last ResetStats(); Stats() reports the delta.
  SampleCacheStats baseline_;
};

}  // namespace platod2gl
