// PlanExecutor: lowered-plan execution over the GraphCluster.
//
// Executes a BATCH of lowered plans step-synchronously: at step j, every
// request in the batch that has a j-th op contributes its work to one
// cross-request cluster round per op kind — one SampleMany /
// TraverseMany / GatherMany call, i.e. one RPC per touched shard for the
// WHOLE batch (the cross-request coalescing the serving layer exists
// for). Negative sampling is pure client-side computation and costs no
// round.
//
// Consistency: the whole batch executes under ONE EpochCoordinator
// ReadGuard, so every request in it reads the same G^(t) snapshot while
// the MicroBatcher applies updates between batches; the pinned epoch is
// stamped into each response.
//
// Determinism: request r's op j draws from OpSeed(r.rng_seed, j)
// regardless of which batch it rode in — SampleMany re-derives each
// item's per-shard RNG exactly as a solo SampleNeighborsChecked call
// would, so batched results are bit-identical to per-request execution
// (pinned in tests/test_serve.cc).
//
// Cost model: the returned virtual_us sums each round's virtual wall
// time (the slowest shard RPC of the round, retries included) — the
// batch's service time on the server's virtual clock (serve/server.h).
//
// Tracing: for every request (each carries the TraceBuilder that Submit
// opened), each plan step emits one span (kind by op) under the
// request's root, and each RPC-backed step emits one kRpcShard child per
// shard its OWN frontier routes to (partitioner order). Span structure
// is therefore a pure function of the request's plan and frontiers —
// identical batched or solo (pinned in tests/test_trace.cc); timestamps
// advance on the batch's virtual clock from `start_us`, round by round.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/cluster.h"
#include "pipeline/epoch_coordinator.h"
#include "serve/query_plan.h"
#include "serve/request_batcher.h"

namespace platod2gl::serve {

struct ExecOutcome {
  /// One response per batch request, in batch order. latency_us is left 0
  /// (the server stamps it from the virtual completion time).
  std::vector<QueryResponse> responses;
  std::uint64_t virtual_us = 0;  ///< batch service time (summed rounds)
  std::uint64_t rounds = 0;      ///< cluster rounds issued
};

class PlanExecutor {
 public:
  PlanExecutor(GraphCluster* cluster, EpochCoordinator* epochs)
      : cluster_(cluster), epochs_(epochs) {}

  /// Execute every request in `batch` against one pinned epoch. The batch
  /// is mutable only for its TraceBuilders (span emission); `start_us` is
  /// the batch's virtual start time, the base for span timestamps.
  ExecOutcome ExecuteBatch(std::vector<PendingRequest>& batch,
                           std::uint64_t start_us = 0);

 private:
  GraphCluster* cluster_;
  EpochCoordinator* epochs_;
};

}  // namespace platod2gl::serve
