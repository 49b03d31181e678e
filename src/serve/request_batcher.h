// RequestBatcher: deadline-bounded cross-request batch formation.
//
// The single biggest lever an online sampling tier has is amortising the
// per-RPC cost across concurrent requests: ten requests each wanting a
// fanout-10 descent cost ten RPCs per shard served one by one, but one
// RPC per shard when coalesced into a single batched descent
// (GraphCluster::SampleMany -> one Samtree::SampleWeighted(k, ...) draw
// per seed on the owning shard). The batcher holds admitted requests in
// arrival order and releases them as a batch when either
//
//  * the batch is full (`max_batch` requests), or
//  * the OLDEST waiting request has waited `window_us` of virtual time —
//    the batch-formation deadline that bounds how much latency batching
//    itself may add.
//
// Time here is the server's virtual clock (see serve/server.h), so batch
// formation is deterministic given the arrival sequence. ShedOldest() is
// the admission shed-policy hook: it evicts the request that has waited
// longest (optionally scoped to one tenant, to relieve a quota) so the
// server can admit fresher work — freshness-over-completeness, exactly
// like the ingestor's kDropOldest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/sched_hooks.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_plan.h"

namespace platod2gl::serve {

/// An admitted request waiting for (or riding in) a batch: the request,
/// its validated lowered plan, and its virtual timestamps.
struct PendingRequest {
  QueryRequest request;
  LoweredPlan plan;
  std::uint64_t arrival_us = 0;  ///< when the client submitted
  std::uint64_t enqueue_us = 0;  ///< when admission let it into the queue
  /// The request's span builder, opened by GraphServer::Submit. Rides the
  /// request through queue -> batch -> retirement; the server finishes it
  /// into the TraceSink, and the shed path closes every open span so an
  /// evicted request never leaks one.
  std::unique_ptr<obs::TraceBuilder> trace;
  std::uint32_t root_span = 0;  ///< the kServeRequest span's id
};

struct BatcherConfig {
  std::size_t max_batch = 32;      ///< release when this many are waiting
  std::uint64_t window_us = 200;   ///< batch-formation deadline (virtual)
};

/// Batcher counters, one row each: exported as pd2gl_batcher_<name> and
/// snapshotted into BatcherStats by RequestBatcher::Stats().
#define PD2GL_BATCHER_COUNTERS(X)                                              \
  X(enqueued)                                                                  \
  X(dispatched)     /* requests released into batches */                       \
  X(batches)        /* batches formed */                                       \
  X(shed)           /* requests evicted by ShedOldest */                       \
  X(closed_rejects) /* enqueues after Close() */

/// The counters plus a point-in-time queue snapshot.
struct BatcherStats {
  PD2GL_BATCHER_COUNTERS(PD2GL_STATS_FIELD)
  std::size_t queued = 0;
};

class RequestBatcher {
 public:
  /// `metrics` hosts the pd2gl_batcher_* series; the GraphServer passes
  /// its own registry. A standalone batcher (tests) owns a private one.
  explicit RequestBatcher(BatcherConfig config = {},
                          obs::MetricRegistry* metrics = nullptr);

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Queue one admitted request at virtual time `now_us`. kUnavailable
  /// after Close().
  Status Enqueue(PendingRequest req, std::uint64_t now_us);

  /// Would FormBatch release a batch at `now_us`?
  bool Due(std::uint64_t now_us) const;

  /// Release the next batch: up to max_batch requests in arrival order,
  /// if the size or deadline trigger fired (or `force`, the drain path).
  /// Empty when nothing is due.
  std::vector<PendingRequest> FormBatch(std::uint64_t now_us,
                                        bool force = false);

  /// Evict the longest-waiting request (optionally of one tenant) so the
  /// server can admit fresher work; the server completes it as kShed.
  std::optional<PendingRequest> ShedOldest(
      std::optional<std::uint32_t> tenant = std::nullopt);

  /// Virtual time at which the oldest waiting request hits the formation
  /// deadline; ~0 when the queue is empty.
  std::uint64_t NextDeadline() const;

  /// Stop admitting into the queue; queued requests remain drainable via
  /// FormBatch(force) — Close() then a forced drain is clean shutdown.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t Depth() const {
    return depth_snapshot_.load(std::memory_order_acquire);
  }

  BatcherStats Stats() const;

  const BatcherConfig& config() const { return config_; }

 private:
  BatcherConfig config_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;
  // The pd2gl_batcher_* handles, one per list row.
  struct {
    PD2GL_BATCHER_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters_;
  mutable Mutex mu_;
  std::deque<PendingRequest> queue_ GUARDED_BY(mu_);

  // STATE atomics stay sched::Atomic (schedule points under
  // PD2GL_SCHEDCHECK — close-vs-enqueue scenario); tallies live in the
  // registry counters above.
  sched::Atomic<bool> closed_{false};
  sched::Atomic<std::size_t> depth_snapshot_{0};
};

}  // namespace platod2gl::serve
