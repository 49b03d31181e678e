#include "pipeline/update_ingestor.h"

#include <algorithm>

#include "common/random.h"

namespace platod2gl {

UpdateIngestor::UpdateIngestor(IngestorConfig config,
                               obs::MetricRegistry* metrics)
    : config_(config) {
  config_.num_shards = std::max<std::size_t>(1, config_.num_shards);
  config_.shard_capacity = std::max<std::size_t>(1, config_.shard_capacity);
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
#define PD2GL_REGISTER(name) \
  counters_.name = metrics_->RegisterCounter("pd2gl_ingest_" #name);
  PD2GL_INGEST_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
}

UpdateIngestor::~UpdateIngestor() { Close(); }

UpdateIngestor::Shard& UpdateIngestor::ShardFor(const EdgeUpdate& u) {
  // SplitMix64-style mix so consecutive vertex IDs spread across shards;
  // keyed by source only, so every update of one edge lands in the same
  // FIFO (per-edge order is what the coalescer folds).
  return *shards_[Mix64(u.edge.src + 0x9E3779B97F4A7C15ULL) %
                  config_.num_shards];
}

void UpdateIngestor::NoteAccepted(std::uint64_t timestamp) {
  counters_.accepted->Add(1);
  queued_.fetch_add(1, std::memory_order_release);
  // order: monotonic-max update; the successful CAS publishes with
  // release, the failed order and the initial read only feed a retry.
  std::uint64_t seen = watermark_.load(std::memory_order_relaxed);
  while (timestamp > seen &&
         !watermark_.compare_exchange_weak(seen, timestamp,
                                           std::memory_order_release,
                                           // order: failed-CAS retry only
                                           std::memory_order_relaxed)) {
  }
}

Status UpdateIngestor::Offer(const TimedUpdate& u) {
  if (!IsValidUpdate(u.update, config_.num_relations)) {
    counters_.invalid->Add(1);
    return Status::InvalidArgument("update " +
                                   std::to_string(u.update.edge.src) + "->" +
                                   std::to_string(u.update.edge.dst) +
                                   " refused: bad type, vertex or weight");
  }
  if (closed()) {
    counters_.closed_rejects->Add(1);
    return Status::Unavailable("ingestor closed");
  }

  Shard& shard = ShardFor(u.update);
  // order: uniqueness only; consumers order by (timestamp, seq) after drain
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(shard.mu);
    if (shard.queue.size() >= config_.shard_capacity) {
      switch (config_.policy) {
        case BackpressurePolicy::kBlock:
          while (shard.queue.size() >= config_.shard_capacity && !closed()) {
            shard.space_cv.wait(shard.mu);
          }
          if (closed()) {
            counters_.closed_rejects->Add(1);
            return Status::Unavailable("ingestor closed");
          }
          break;
        case BackpressurePolicy::kReject:
          counters_.rejected->Add(1);
          return Status::ResourceExhausted("ingest queue full");
        case BackpressurePolicy::kDropOldest:
          shard.queue.pop_front();
          counters_.dropped->Add(1);
          queued_.fetch_sub(1, std::memory_order_release);
          break;
      }
    }
    shard.queue.push_back(IngestedUpdate{u, seq});
  }
  NoteAccepted(u.timestamp);
  return Status::Ok();
}

void UpdateIngestor::Close() {
  closed_.store(true, std::memory_order_release);
  // Wake every producer blocked on space so it can observe the close.
  // The notify must happen under the shard lock: a kBlock producer
  // evaluates `!closed()` and calls wait() inside its critical section,
  // so an unlocked notify can land in the gap between its check and its
  // wait and be lost — the producer then sleeps forever because nothing
  // else will ever signal space_cv (found by the schedule checker,
  // tests/test_schedcheck_scenarios.cc IngestorScenario). Taking the
  // lock serialises this notify against that check-then-wait window.
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->space_cv.notify_all();
  }
}

std::size_t UpdateIngestor::DrainAll(std::vector<IngestedUpdate>* out) {
  std::size_t drained = 0;
  for (auto& shard : shards_) {
    std::size_t taken = 0;
    {
      MutexLock lock(shard->mu);
      taken = shard->queue.size();
      for (auto& e : shard->queue) out->push_back(e);
      shard->queue.clear();
    }
    if (taken > 0) {
      drained += taken;
      queued_.fetch_sub(taken, std::memory_order_release);
      shard->space_cv.notify_all();
    }
  }
  return drained;
}

IngestorStats UpdateIngestor::Stats() const {
  IngestorStats s;
#define PD2GL_FILL(name) s.name = counters_.name->Value();
  PD2GL_INGEST_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  s.watermark = watermark();
  s.queued = QueueDepth();
  return s;
}

}  // namespace platod2gl
