// MicroBatcher: the single consumer that turns the ingest stream into
// applied micro-batches.
//
// Each pump (1) drains every ingestor shard and merges the haul into one
// deterministic (timestamp, admission-seq) order, (2) appends the raw
// batch to the TemporalEdgeLog — durability first, so a sequential
// replay of the log always reproduces the live store, (3) coalesces
// insert/update/delete churn on the same edge down to one
// state-equivalent update per edge, and (4) applies the folded batch
// through the store's latch-free batch apply (GraphStore::ApplyBatch on
// the batcher's pool), inside the EpochCoordinator's write barrier so
// pinned readers never observe a half-applied batch.
//
// Batching triggers: `max_batch` is the size trigger (a pump applies at
// most that many updates and carries the rest), `min_batch` lets small
// dribbles accumulate across pumps; the *time* trigger is the driver's
// pump cadence itself (ContinuousTrainer pumps between training steps,
// and Flush(force) overrides min_batch at shutdown).
//
// Single consumer: PumpOnce/Flush must be called from one thread at a
// time. Stats and watermark reads are safe from any thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/update_ingestor.h"
#include "storage/graph_store.h"
#include "temporal/edge_log.h"

namespace platod2gl {

struct MicroBatcherConfig {
  std::size_t max_batch = 4096;  ///< size trigger: apply at most this many
  std::size_t min_batch = 1;     ///< accumulate until this many (unforced)
};

/// Micro-batcher counters, one row each: exported as
/// pd2gl_micro_batcher_<name> and snapshotted into MicroBatcherStats by
/// MicroBatcher::Stats().
#define PD2GL_MICRO_BATCHER_COUNTERS(X)                                        \
  X(batches_applied)                                                           \
  X(updates_ingested) /* raw updates drained */                                \
  X(updates_applied)  /* after coalescing */                                   \
  X(coalesced)        /* updates folded away */                                \
  X(log_rejected)     /* WAL monotonicity rejects */                           \
  X(invalid_dropped)  /* edge type out of range */

/// The counters plus the point-in-time watermark and depth.
struct MicroBatcherStats {
  PD2GL_MICRO_BATCHER_COUNTERS(PD2GL_STATS_FIELD)
  std::uint64_t applied_watermark = 0;  ///< newest timestamp in the store
  std::size_t pending = 0;              ///< drained but not yet applied
};

class MicroBatcher {
 public:
  /// Everything is borrowed and must outlive the batcher; the log must
  /// not be null (every applied update is logged first). `metrics` hosts
  /// the pd2gl_micro_batcher_* series (typically the same registry the
  /// ingestor registered into); null = private registry.
  MicroBatcher(GraphStore* graph, ThreadPool* pool, UpdateIngestor* ingestor,
               EpochCoordinator* epochs, TemporalEdgeLog* log,
               MicroBatcherConfig config = {},
               obs::MetricRegistry* metrics = nullptr);

  /// Drain the ingestor and, if at least min_batch updates are pending
  /// (or `force`), log + coalesce + apply one micro-batch of up to
  /// max_batch updates. Returns the number of raw updates consumed (0
  /// when below min_batch or idle).
  std::size_t PumpOnce(bool force = false);

  /// Pump until the ingestor and the pending carry-over are both empty.
  /// Returns the total raw updates consumed.
  std::size_t Flush();

  /// Fold every run of updates touching the same (src, dst, type) into
  /// one state-equivalent update, in place (first-occurrence order of
  /// edges is kept; the fold is exact for any prior store state: e.g.
  /// insert-then-delete folds to delete, delete-then-insert to insert,
  /// insert-then-inplace to an insert carrying the final weight).
  /// Returns the number of updates eliminated. Exposed for tests.
  static std::size_t Coalesce(std::vector<EdgeUpdate>* batch);

  /// Newest event timestamp applied to the store (0 before any apply).
  std::uint64_t applied_watermark() const {
    return applied_watermark_.load(std::memory_order_acquire);
  }

  MicroBatcherStats Stats() const;

  const MicroBatcherConfig& config() const { return config_; }

 private:
  GraphStore* graph_;
  ThreadPool* pool_;
  UpdateIngestor* ingestor_;
  EpochCoordinator* epochs_;
  TemporalEdgeLog* log_;
  MicroBatcherConfig config_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;
  // The pd2gl_micro_batcher_* handles, one per list row.
  struct {
    PD2GL_MICRO_BATCHER_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters_;

  // Consumer-thread state: drained-but-unapplied updates in (ts, seq)
  // order, plus the per-pump scratch batch.
  std::vector<IngestedUpdate> pending_;
  std::vector<TimedUpdate> scratch_;

  // STATE snapshots (cross-thread watermark/depth reads); tallies live in
  // the registry counters above.
  std::atomic<std::uint64_t> applied_watermark_{0};
  std::atomic<std::size_t> pending_size_{0};
};

}  // namespace platod2gl
