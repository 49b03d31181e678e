#include "pipeline/micro_batcher.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>

namespace platod2gl {

namespace {

bool ByTimeThenSeq(const IngestedUpdate& a, const IngestedUpdate& b) {
  return a.update.timestamp != b.update.timestamp
             ? a.update.timestamp < b.update.timestamp
             : a.seq < b.seq;
}

struct EdgeKey {
  VertexId src;
  VertexId dst;
  EdgeType type;

  friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
};

struct EdgeKeyHash {
  std::size_t operator()(const EdgeKey& k) const {
    std::uint64_t h = k.src * 0x9E3779B97F4A7C15ULL;
    h ^= (k.dst + 0xBF58476D1CE4E5B9ULL) + (h << 6) + (h >> 2);
    h ^= (static_cast<std::uint64_t>(k.type) + 0x94D049BB133111EBULL) +
         (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

MicroBatcher::MicroBatcher(GraphStore* graph, ThreadPool* pool,
                           UpdateIngestor* ingestor, EpochCoordinator* epochs,
                           TemporalEdgeLog* log, MicroBatcherConfig config,
                           obs::MetricRegistry* metrics)
    : graph_(graph),
      pool_(pool),
      ingestor_(ingestor),
      epochs_(epochs),
      log_(log),
      config_(config) {
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  config_.min_batch = std::max<std::size_t>(1, config_.min_batch);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
#define PD2GL_REGISTER(name) \
  counters_.name = metrics_->RegisterCounter("pd2gl_micro_batcher_" #name);
  PD2GL_MICRO_BATCHER_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
}

std::size_t MicroBatcher::Coalesce(std::vector<EdgeUpdate>* batch) {
  if (batch->size() < 2) return 0;
  std::unordered_map<EdgeKey, std::size_t, EdgeKeyHash> slot;
  slot.reserve(batch->size());
  std::size_t out = 0;
  for (std::size_t i = 0; i < batch->size(); ++i) {
    const EdgeUpdate& next = (*batch)[i];
    const EdgeKey key{next.edge.src, next.edge.dst, next.edge.type};
    const auto [it, inserted] = slot.try_emplace(key, out);
    if (inserted) {
      (*batch)[out++] = next;
      continue;
    }
    EdgeUpdate& folded = (*batch)[it->second];
    switch (next.kind) {
      case UpdateKind::kInsert:
      case UpdateKind::kDelete:
        // Inserts refresh and deletes clear regardless of what came
        // before: the newest op alone determines the edge's final state.
        folded = next;
        break;
      case UpdateKind::kInPlaceUpdate:
        // An in-place update only lands if the edge exists at that
        // point, which the folded op already decides: after an insert
        // the edge exists (carry the new weight in the insert), after a
        // delete it does not (the update was a no-op).
        if (folded.kind == UpdateKind::kInsert) {
          folded.edge.weight = next.edge.weight;
        } else if (folded.kind == UpdateKind::kInPlaceUpdate) {
          folded = next;
        }
        break;
    }
  }
  const std::size_t eliminated = batch->size() - out;
  batch->resize(out);
  return eliminated;
}

std::size_t MicroBatcher::PumpOnce(bool force) {
  // Drain every shard, then restore the global (timestamp, seq) order:
  // the haul is per-shard sorted already, so sort just the new tail and
  // merge it under the carried prefix.
  const std::size_t carried = pending_.size();
  const std::size_t drained = ingestor_->DrainAll(&pending_);
  if (drained > 0) {
    counters_.updates_ingested->Add(drained);
    const auto mid = pending_.begin() + static_cast<std::ptrdiff_t>(carried);
    std::sort(mid, pending_.end(), ByTimeThenSeq);
    std::inplace_merge(pending_.begin(), mid, pending_.end(), ByTimeThenSeq);
    pending_size_.store(pending_.size(), std::memory_order_release);
  }
  if (pending_.empty() || (!force && pending_.size() < config_.min_batch)) {
    return 0;
  }
  const std::size_t take = std::min(config_.max_batch, pending_.size());

  // The raw micro-batch, minus updates whose relation the store does not
  // have (counted, never applied — .at(type) would fault downstream).
  scratch_.clear();
  scratch_.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const TimedUpdate& u = pending_[i].update;
    if (u.update.edge.type >= graph_->num_relations()) {
      counters_.invalid_dropped->Add(1);
      continue;
    }
    scratch_.push_back(u);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(take));
  pending_size_.store(pending_.size(), std::memory_order_release);
  if (scratch_.empty()) return take;

  // Durability first: WAL-append the raw batch. The batch is sorted, so
  // the only entries the log's monotonicity contract can reject are a
  // prefix older than the log's tail (a producer violated monotone event
  // time). Cut that prefix off *before* appending — the store applies
  // exactly what the WAL accepted, keeping "live store == sequential
  // replay of the log" an invariant even on misbehaving input.
  std::size_t first_ok = 0;
  if (!log_->empty()) {
    const std::uint64_t tail = log_->MaxTimestamp();
    while (first_ok < scratch_.size() &&
           scratch_[first_ok].timestamp < tail) {
      ++first_ok;
    }
  }
  const std::span<const TimedUpdate> accepted(scratch_.data() + first_ok,
                                              scratch_.size() - first_ok);
  log_->AppendBatch(accepted);
  counters_.log_rejected->Add(first_ok);
  if (accepted.empty()) return take;

  // Coalesce per-edge churn.
  std::vector<EdgeUpdate> folded;
  folded.reserve(accepted.size());
  for (const TimedUpdate& u : accepted) folded.push_back(u.update);
  counters_.coalesced->Add(Coalesce(&folded));

  {
    // Exclusive apply: pinned readers drained, new ones held out until
    // the epoch advances with the guard's release.
    EpochCoordinator::WriteGuard write = epochs_->BeginWrite();
    graph_->ApplyBatch(folded, pool_);
    counters_.updates_applied->Add(folded.size());
    applied_watermark_.store(accepted.back().timestamp,
                             std::memory_order_release);
  }
  counters_.batches_applied->Add(1);
  return take;
}

std::size_t MicroBatcher::Flush() {
  std::size_t total = 0;
  while (true) {
    const std::size_t n = PumpOnce(/*force=*/true);
    if (n == 0) return total;
    total += n;
  }
}

MicroBatcherStats MicroBatcher::Stats() const {
  MicroBatcherStats s;
#define PD2GL_FILL(name) s.name = counters_.name->Value();
  PD2GL_MICRO_BATCHER_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  s.applied_watermark = applied_watermark();
  s.pending = pending_size_.load(std::memory_order_acquire);
  return s;
}

}  // namespace platod2gl
