#include "serve/executor.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/random.h"

namespace platod2gl::serve {

namespace {

/// Fill a vertex-frontier stage from a cluster SampleReport and expose
/// the frontier for downstream slots. Returns whether anything degraded.
bool FillVertexStage(SampleReport&& report, StageOutput* stage,
                     std::vector<VertexId>* next_slot) {
  stage->ids = std::move(report.batch.neighbors);
  stage->offsets.assign(report.batch.offsets.begin(),
                        report.batch.offsets.end());
  *next_slot = stage->ids;
  return report.degraded_seeds > 0;
}

}  // namespace

ExecOutcome PlanExecutor::ExecuteBatch(std::vector<PendingRequest>& batch,
                                       std::uint64_t start_us) {
  ExecOutcome out;
  out.responses.resize(batch.size());
  if (batch.empty()) return out;

  // One consistent snapshot for the whole batch: the MicroBatcher's
  // write barrier waits this guard out, never interleaves with it.
  EpochCoordinator::ReadGuard guard = epochs_->PinRead();

  // The batch's virtual clock: rounds serialize, so each round occupies
  // [now_us, now_us + round_virtual_us). Span timestamps live on it.
  std::uint64_t now_us = start_us;
  const Partitioner& part = cluster_->partitioner();

  // Emit request r's span for step j: the step span under the root, plus
  // (for RPC-backed kinds) one kRpcShard child per shard r's own input
  // frontier routes to, in shard order. Everything here is a pure
  // function of r's plan and frontiers, so batched and solo executions
  // of the same request build identical trees.
  auto emit_step_span = [&](std::size_t r, obs::SpanKind kind, std::size_t j,
                            const std::vector<VertexId>* shard_input,
                            std::uint64_t items, std::uint64_t span_start,
                            std::uint64_t span_end) {
    PendingRequest& req = batch[r];
    const std::uint32_t step_span =
        req.trace->StartSpan(kind, req.root_span, span_start,
                             static_cast<std::uint32_t>(j), 0, items);
    if (shard_input != nullptr) {
      std::vector<std::uint64_t> per_shard(part.num_shards(), 0);
      for (const VertexId v : *shard_input) ++per_shard[part.ShardOf(v)];
      for (std::size_t s = 0; s < per_shard.size(); ++s) {
        if (per_shard[s] == 0) continue;
        const std::uint32_t rpc = req.trace->StartSpan(
            obs::SpanKind::kRpcShard, step_span, span_start,
            static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(s),
            per_shard[s]);
        req.trace->EndSpan(rpc, span_end);
      }
    }
    req.trace->EndSpan(step_span, span_end);
  };

  std::size_t max_steps = 0;
  // slots[r][0] = request seeds; slots[r][j + 1] = op j's frontier.
  // Pre-sized so in-flight pointers into inner vectors stay stable.
  std::vector<std::vector<std::vector<VertexId>>> slots(batch.size());
  std::vector<bool> degraded(batch.size(), false);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    const PendingRequest& req = batch[r];
    max_steps = std::max(max_steps, req.plan.steps.size());
    slots[r].resize(req.plan.steps.size() + 1);
    slots[r][0] = req.request.seeds;
    out.responses[r].tenant = req.request.tenant;
    out.responses[r].request_id = req.request.request_id;
    out.responses[r].epoch = guard.epoch();
    out.responses[r].stages.resize(req.plan.steps.size());
  }

  for (std::size_t j = 0; j < max_steps; ++j) {
    // Partition this step's work by op kind; each kind forms one
    // cross-request cluster round. Batch order within a round is the
    // batch's (arrival) order, but results are order-independent anyway:
    // every item's RNG is derived from its own request seed.
    std::vector<std::size_t> sample_reqs;
    std::vector<SampleWorkItem> sample_items;
    std::vector<std::size_t> traverse_reqs;
    std::vector<TraverseWorkItem> traverse_items;
    std::vector<std::size_t> gather_reqs;
    std::vector<GatherWorkItem> gather_items;

    for (std::size_t r = 0; r < batch.size(); ++r) {
      const PendingRequest& req = batch[r];
      if (j >= req.plan.steps.size()) continue;
      const LoweredStep& step = req.plan.steps[j];
      const std::vector<VertexId>& input = slots[r][step.input_slot];
      switch (step.op.kind) {
        case OpKind::kSample: {
          SampleWorkItem item;
          item.seeds = &input;
          item.fanout = step.op.fanout;
          item.weighted = step.op.weighted;
          item.rng_seed = OpSeed(req.request.rng_seed, j);
          item.type = step.op.edge_type;
          sample_reqs.push_back(r);
          sample_items.push_back(item);
          break;
        }
        case OpKind::kTraverse: {
          TraverseWorkItem item;
          item.seeds = &input;
          item.cap = step.op.fanout;
          item.type = step.op.edge_type;
          traverse_reqs.push_back(r);
          traverse_items.push_back(item);
          break;
        }
        case OpKind::kGather: {
          GatherWorkItem item;
          item.ids = &input;
          gather_reqs.push_back(r);
          gather_items.push_back(item);
          break;
        }
        case OpKind::kNegativeSample: {
          // Pure client-side: uniform draws over [range_lo, range_hi)
          // rejecting the input frontier (the positives), from this op's
          // own derived stream. Bounded rejection attempts so a hostile
          // range that mostly overlaps the positives cannot spin; the
          // tail fill after the budget may then contain positives.
          const PlanOp& op = step.op;
          std::unordered_set<VertexId> positives(input.begin(), input.end());
          Xoshiro256 rng(OpSeed(req.request.rng_seed, j));
          const std::uint64_t span = op.range_hi - op.range_lo;
          std::vector<VertexId> negatives;
          negatives.reserve(op.count);
          std::size_t attempts_left =
              static_cast<std::size_t>(op.count) * 4 + 64;
          while (negatives.size() < op.count) {
            const VertexId v = op.range_lo + rng.NextUint64(span);
            if (positives.find(v) == positives.end() || attempts_left == 0) {
              negatives.push_back(v);
            }
            if (attempts_left > 0) --attempts_left;
          }
          StageOutput& stage = out.responses[r].stages[j];
          stage.offsets = {0, negatives.size()};
          stage.ids = std::move(negatives);
          slots[r][j + 1] = stage.ids;
          // Client-side: no RPC round, zero virtual duration.
          emit_step_span(r, obs::SpanKind::kPlanNegative, j,
                         /*shard_input=*/nullptr, stage.ids.size(), now_us,
                         now_us);
          break;
        }
      }
    }

    if (!traverse_items.empty()) {
      MultiSampleReport multi = cluster_->TraverseMany(traverse_items);
      const std::uint64_t round_start = now_us;
      now_us += multi.round_virtual_us;
      out.virtual_us += multi.round_virtual_us;
      ++out.rounds;
      for (std::size_t k = 0; k < traverse_reqs.size(); ++k) {
        const std::size_t r = traverse_reqs[k];
        emit_step_span(r, obs::SpanKind::kPlanTraverse, j,
                       traverse_items[k].seeds, traverse_items[k].seeds->size(),
                       round_start, now_us);
        if (FillVertexStage(std::move(multi.reports[k]),
                            &out.responses[r].stages[j], &slots[r][j + 1])) {
          degraded[r] = true;
        }
      }
    }
    if (!sample_items.empty()) {
      MultiSampleReport multi = cluster_->SampleMany(sample_items);
      const std::uint64_t round_start = now_us;
      now_us += multi.round_virtual_us;
      out.virtual_us += multi.round_virtual_us;
      ++out.rounds;
      for (std::size_t k = 0; k < sample_reqs.size(); ++k) {
        const std::size_t r = sample_reqs[k];
        emit_step_span(r, obs::SpanKind::kPlanSample, j,
                       sample_items[k].seeds, sample_items[k].seeds->size(),
                       round_start, now_us);
        if (FillVertexStage(std::move(multi.reports[k]),
                            &out.responses[r].stages[j], &slots[r][j + 1])) {
          degraded[r] = true;
        }
      }
    }
    if (!gather_items.empty()) {
      MultiGatherReport multi = cluster_->GatherMany(gather_items);
      const std::uint64_t round_start = now_us;
      now_us += multi.round_virtual_us;
      out.virtual_us += multi.round_virtual_us;
      ++out.rounds;
      for (std::size_t k = 0; k < gather_reqs.size(); ++k) {
        const std::size_t r = gather_reqs[k];
        emit_step_span(r, obs::SpanKind::kPlanGather, j, gather_items[k].ids,
                       gather_items[k].ids->size(), round_start, now_us);
        StageOutput& stage = out.responses[r].stages[j];
        stage.feature_dim = multi.dim;
        stage.features = std::move(multi.reports[k].features);
        if (multi.reports[k].degraded_rows > 0) degraded[r] = true;
      }
    }
  }

  for (std::size_t r = 0; r < batch.size(); ++r) {
    out.responses[r].status =
        degraded[r] ? RequestStatus::kDegraded : RequestStatus::kOk;
  }
  return out;
}

}  // namespace platod2gl::serve
