// QueryPlan: the serving layer's composable sampling-query language.
//
// Online GNN serving systems expose a small graph-sampling language (GSL
// in AliGraph, similar surfaces in GLISP) instead of raw point lookups: a
// request names seed vertices and a short pipeline of operators —
// traverse, sample(fanout, weighted|uniform), negative-sample, gather
// attributes — and the server executes the pipeline against one
// consistent snapshot of the evolving graph. This header defines the
// plan, the request/response value types, and the planner that validates
// a plan and lowers it into the executable step list the PlanExecutor
// drives (src/serve/executor.h).
//
// A plan is a DAG expressed as a topologically-ordered op list: each op
// consumes either the request's seeds (kPlanInputSeeds) or the vertex
// frontier produced by an EARLIER op (input < own index). Gather is a
// sink (it produces feature rows, not vertices), so it can never be an
// input. Validation is conservative: op count, fanouts, seed counts,
// negative-sample ranges, edge types, and the worst-case frontier growth
// along every chain are all bounded before a request is admitted, so a
// hostile plan cannot drive an unbounded execution.
//
// Determinism: every random operator of request r draws from
// OpSeed(r.rng_seed, op_index) — a pure function, independent of
// batching, admission order, and retries. tests/test_serve.cc pins that a
// served sample stage is bit-identical to a direct
// GraphCluster::SampleNeighborsChecked call with the same derived seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace platod2gl::serve {

/// Sentinel `input`: the op consumes the request's seed vertices.
inline constexpr std::uint32_t kPlanInputSeeds = 0xFFFFFFFFu;

enum class OpKind : std::uint8_t {
  kTraverse = 0,        ///< up to `fanout` neighbours, store order, RNG-free
  kSample = 1,          ///< `fanout` draws per vertex, weighted or uniform
  kNegativeSample = 2,  ///< `count` uniform draws from [range_lo, range_hi)
                        ///< avoiding the input frontier
  kGather = 3,          ///< feature rows of the input frontier (sink)
};

struct PlanOp {
  OpKind kind = OpKind::kSample;
  std::uint32_t input = kPlanInputSeeds;  ///< producing op index or seeds
  EdgeType edge_type = 0;                 ///< traverse / sample
  std::uint32_t fanout = 0;               ///< traverse cap / sample fanout
  bool weighted = true;                   ///< sample only
  std::uint32_t count = 0;                ///< negative-sample draws
  VertexId range_lo = 0;                  ///< negative-sample range
  VertexId range_hi = 0;

  friend bool operator==(const PlanOp&, const PlanOp&) = default;
};

/// Builder-style plan. Ops execute in index order; `input` defaults to
/// the request seeds so a linear pipeline reads naturally:
///   QueryPlan p;
///   p.Sample(10).Sample(5, /*weighted=*/false, /*input=*/0).Gather(1);
struct QueryPlan {
  std::vector<PlanOp> ops;

  QueryPlan& Traverse(std::uint32_t cap, EdgeType type = 0,
                      std::uint32_t input = kPlanInputSeeds) {
    PlanOp op;
    op.kind = OpKind::kTraverse;
    op.input = input;
    op.edge_type = type;
    op.fanout = cap;
    ops.push_back(op);
    return *this;
  }
  QueryPlan& Sample(std::uint32_t fanout, bool weighted = true,
                    std::uint32_t input = kPlanInputSeeds,
                    EdgeType type = 0) {
    PlanOp op;
    op.kind = OpKind::kSample;
    op.input = input;
    op.edge_type = type;
    op.fanout = fanout;
    op.weighted = weighted;
    ops.push_back(op);
    return *this;
  }
  QueryPlan& NegativeSample(std::uint32_t count, VertexId range_lo,
                            VertexId range_hi,
                            std::uint32_t input = kPlanInputSeeds) {
    PlanOp op;
    op.kind = OpKind::kNegativeSample;
    op.input = input;
    op.count = count;
    op.range_lo = range_lo;
    op.range_hi = range_hi;
    ops.push_back(op);
    return *this;
  }
  QueryPlan& Gather(std::uint32_t input = kPlanInputSeeds) {
    PlanOp op;
    op.kind = OpKind::kGather;
    op.input = input;
    ops.push_back(op);
    return *this;
  }

  friend bool operator==(const QueryPlan&, const QueryPlan&) = default;
};

/// Planner bounds; also the admission-time resource limits a hostile
/// plan is checked against.
struct PlannerLimits {
  std::size_t max_ops = 8;
  std::size_t max_seeds = 4096;
  std::uint32_t max_fanout = 1024;
  std::uint32_t max_negatives = 4096;
  /// Worst-case vertices any single frontier may reach (seeds x fanout
  /// products along the chain).
  std::size_t max_frontier = 1u << 18;
  /// Edge types must be < num_relations (the cluster's store config).
  std::size_t num_relations = 1;
};

/// One executable step: the op plus its resolved input slot — slot 0 is
/// the request seeds, slot i + 1 is op i's output frontier.
struct LoweredStep {
  PlanOp op;
  std::size_t input_slot = 0;
};

/// A validated plan lowered into the executor's step list, with the
/// planner's cost estimates (used by admission accounting and tests).
struct LoweredPlan {
  std::vector<LoweredStep> steps;
  std::size_t rpc_rounds = 0;    ///< steps that touch shards (not negatives)
  std::size_t max_frontier = 0;  ///< worst-case vertices in any one slot
};

/// Validate `plan` for a request with `num_seeds` seeds against `limits`
/// and lower it. Non-OK (kInvalidArgument) names the offending op; `out`
/// is only written on success.
Status ValidateAndLower(const QueryPlan& plan, std::size_t num_seeds,
                        const PlannerLimits& limits, LoweredPlan* out);

/// Per-op RNG seed derivation: pure in (request seed, op index), so an
/// op's draw stream is independent of batching and of every other op.
inline std::uint64_t OpSeed(std::uint64_t rng_seed, std::size_t op_index) {
  SplitMix64 mix(rng_seed ^
                 (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(
                                             op_index + 1)));
  return mix.Next();
}

/// One serving request: who is asking (tenant), the seeds, the plan, and
/// the RNG seed that makes every random draw reproducible.
struct QueryRequest {
  std::uint32_t tenant = 0;
  std::uint64_t request_id = 0;
  std::uint64_t rng_seed = 0;
  std::vector<VertexId> seeds;
  QueryPlan plan;

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

enum class RequestStatus : std::uint8_t {
  kOk = 0,
  kDegraded = 1,  ///< served, but some frontier came back degraded/stale
  kShed = 2,      ///< dropped by admission's shed-oldest policy
};

/// One op's output: vertex frontiers carry `ids` + per-input `offsets`
/// (NeighborBatch layout); gather stages carry dense feature rows
/// instead.
struct StageOutput {
  std::vector<VertexId> ids;
  std::vector<std::uint64_t> offsets;
  std::uint32_t feature_dim = 0;
  std::vector<float> features;

  friend bool operator==(const StageOutput&, const StageOutput&) = default;
};

struct QueryResponse {
  std::uint32_t tenant = 0;
  std::uint64_t request_id = 0;
  RequestStatus status = RequestStatus::kOk;
  /// The EpochCoordinator epoch this request's snapshot was pinned at.
  std::uint64_t epoch = 0;
  /// The trace this request was served under (obs::DeriveTraceId of the
  /// request identity); the handle a client quotes to `pd2gl trace` /
  /// TraceSink::Find.
  std::uint64_t trace_id = 0;
  std::vector<StageOutput> stages;  ///< one per plan op (empty when shed)
  /// Virtual-time latency (arrival -> completion, 0 when the arrival
  /// stamp is later than the completion).
  std::uint64_t latency_us = 0;

  friend bool operator==(const QueryResponse&, const QueryResponse&) = default;
};

}  // namespace platod2gl::serve
