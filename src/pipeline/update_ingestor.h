// UpdateIngestor: the producer-facing mouth of the streaming pipeline.
//
// The paper models the dynamic graph as a timestamped update series G^(t)
// (Section II-A); in the production deployment those updates arrive as
// live user-interaction traffic from many feed threads at once. This
// class is the bounded, backpressured funnel between them and the
// single-consumer MicroBatcher:
//
//  * MPSC sharding — producers hash their update's source vertex onto one
//    of `num_shards` bounded FIFO queues, so unrelated producers contend
//    on different locks and all updates of one edge stay in one queue
//    (per-edge FIFO, which the batcher's coalescing relies on).
//  * Backpressure — a full shard either blocks the producer (kBlock, the
//    lossless default), rejects the offer with kResourceExhausted
//    (kReject, for callers with their own retry/shedding loop), or drops
//    the oldest queued update to admit the new one (kDropOldest,
//    freshness-over-completeness; every drop is counted).
//  * Watermarks — the ingestor tracks the newest accepted event
//    timestamp. The trainer reports per-step graph staleness as this
//    ingest watermark minus the batcher's applied watermark.
//
// Accepted updates are stamped with a process-wide admission sequence
// number so the consumer can merge the shard queues into one
// deterministic (timestamp, seq) order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/sched_hooks.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "temporal/edge_log.h"

namespace platod2gl {

/// What a producer experiences when it offers into a full shard queue.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,      ///< wait for the consumer to drain (lossless, may stall)
  kReject,     ///< fail fast with kResourceExhausted (caller sheds/retries)
  kDropOldest  ///< evict the oldest queued update, admit the new one
};

struct IngestorConfig {
  std::size_t num_shards = 4;       ///< independent producer queues
  std::size_t shard_capacity = 4096;  ///< bound per shard, in updates
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Offers whose edge type is >= num_relations are rejected with
  /// kInvalidArgument at the door, with the vertex and weight checks of
  /// IsValidUpdate. Set it to the store's relation count (GraphStoreConfig
  /// defaults to 1, and so does this).
  std::size_t num_relations = 1;
};

/// Ingestor counters, one row each: exported as pd2gl_ingest_<name> and
/// snapshotted into IngestorStats by UpdateIngestor::Stats().
#define PD2GL_INGEST_COUNTERS(X)                                               \
  X(accepted)       /* offers that entered a queue */                          \
  X(rejected)       /* kReject policy refusals (queue full) */                 \
  X(dropped)        /* kDropOldest evictions */                                \
  X(invalid)        /* failed IsValidUpdate, refused at the door */            \
  X(closed_rejects) /* offers after Close() */

/// The counters plus a point-in-time queue snapshot.
struct IngestorStats {
  PD2GL_INGEST_COUNTERS(PD2GL_STATS_FIELD)
  std::uint64_t watermark = 0;  ///< newest accepted event timestamp
  std::size_t queued = 0;       ///< updates currently waiting
};

/// An accepted update plus its admission sequence number (the global
/// arrival tiebreak for equal timestamps).
struct IngestedUpdate {
  TimedUpdate update;
  std::uint64_t seq = 0;
};

class UpdateIngestor {
 public:
  /// `metrics` hosts the pd2gl_ingest_* series so one registry can cover
  /// the whole pipeline; when null the ingestor owns a private registry.
  explicit UpdateIngestor(IngestorConfig config = {},
                          obs::MetricRegistry* metrics = nullptr);
  ~UpdateIngestor();

  UpdateIngestor(const UpdateIngestor&) = delete;
  UpdateIngestor& operator=(const UpdateIngestor&) = delete;

  /// Offer one timestamped update. Thread-safe, called by any number of
  /// producers. Returns Ok when queued; kResourceExhausted (kReject
  /// policy, queue full), kInvalidArgument (fails IsValidUpdate) or
  /// kUnavailable (after Close()) otherwise. Under kBlock the call waits
  /// until space frees up or the ingestor closes.
  Status Offer(const TimedUpdate& u);

  /// Convenience: offer an insertion.
  Status OfferInsert(std::uint64_t timestamp, const Edge& e) {
    return Offer(TimedUpdate{timestamp, EdgeUpdate{UpdateKind::kInsert, e}});
  }

  /// Stop admitting: every subsequent (and currently blocked) Offer
  /// returns kUnavailable. Already-queued updates remain drainable —
  /// Close() then Flush() is the clean shutdown sequence.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Consumer side: move every queued update out of every shard, append
  /// to *out, and wake producers blocked on the freed space. Returns the
  /// number drained. Single consumer assumed (the MicroBatcher).
  std::size_t DrainAll(std::vector<IngestedUpdate>* out);

  /// Newest accepted event timestamp (0 before any accept).
  std::uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Updates currently queued across all shards.
  std::size_t QueueDepth() const {
    return queued_.load(std::memory_order_acquire);
  }

  IngestorStats Stats() const;

  const IngestorConfig& config() const { return config_; }

 private:
  struct Shard {
    Mutex mu;
    CondVar space_cv;  // kBlock producers wait here for drain or Close
    std::deque<IngestedUpdate> queue GUARDED_BY(mu);
  };

  Shard& ShardFor(const EdgeUpdate& u);
  void NoteAccepted(std::uint64_t timestamp);

  IngestorConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;
  // The pd2gl_ingest_* handles, one per list row.
  struct {
    PD2GL_INGEST_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters_;
  // STATE atomics stay sched::Atomic (== std::atomic in production;
  // under PD2GL_SCHEDCHECK every access is a schedule point so the
  // checker can interleave producers, the consumer, and shutdown around
  // them). Pure tallies live in the registry counters above.
  sched::Atomic<bool> closed_{false};
  sched::Atomic<std::uint64_t> next_seq_{0};
  sched::Atomic<std::uint64_t> watermark_{0};
  sched::Atomic<std::size_t> queued_{0};
};

}  // namespace platod2gl
