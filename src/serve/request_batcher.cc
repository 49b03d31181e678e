#include "serve/request_batcher.h"

#include <algorithm>
#include <utility>

namespace platod2gl::serve {

RequestBatcher::RequestBatcher(BatcherConfig config,
                               obs::MetricRegistry* metrics)
    : config_(config) {
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
#define PD2GL_REGISTER(name) \
  counters_.name = metrics_->RegisterCounter("pd2gl_batcher_" #name);
  PD2GL_BATCHER_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
}

Status RequestBatcher::Enqueue(PendingRequest req, std::uint64_t now_us) {
  // The closed check and the push must be one critical section: an
  // unlocked check-then-lock lets a concurrent Close() land in between
  // and strand the request in a queue nothing will drain (pinned by
  // BatcherCloseScenario in tests/test_schedcheck_scenarios.cc).
  MutexLock lock(mu_);
  if (closed()) {
    counters_.closed_rejects->Add(1);
    return Status::Unavailable("batcher closed");
  }
  req.enqueue_us = now_us;
  queue_.push_back(std::move(req));
  depth_snapshot_.store(queue_.size(), std::memory_order_release);
  counters_.enqueued->Add(1);
  return Status::Ok();
}

bool RequestBatcher::Due(std::uint64_t now_us) const {
  MutexLock lock(mu_);
  if (queue_.empty()) return false;
  if (queue_.size() >= config_.max_batch) return true;
  return now_us >= queue_.front().enqueue_us + config_.window_us;
}

std::vector<PendingRequest> RequestBatcher::FormBatch(std::uint64_t now_us,
                                                      bool force) {
  std::vector<PendingRequest> batch;
  MutexLock lock(mu_);
  if (queue_.empty()) return batch;
  const bool size_trigger = queue_.size() >= config_.max_batch;
  const bool deadline_trigger =
      now_us >= queue_.front().enqueue_us + config_.window_us;
  if (!size_trigger && !deadline_trigger && !force) return batch;
  const std::size_t n = std::min(config_.max_batch, queue_.size());
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  depth_snapshot_.store(queue_.size(), std::memory_order_release);
  counters_.dispatched->Add(n);
  counters_.batches->Add(1);
  return batch;
}

std::optional<PendingRequest> RequestBatcher::ShedOldest(
    std::optional<std::uint32_t> tenant) {
  MutexLock lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (tenant.has_value() && it->request.tenant != *tenant) continue;
    PendingRequest victim = std::move(*it);
    queue_.erase(it);
    depth_snapshot_.store(queue_.size(), std::memory_order_release);
    counters_.shed->Add(1);
    return victim;
  }
  return std::nullopt;
}

std::uint64_t RequestBatcher::NextDeadline() const {
  MutexLock lock(mu_);
  if (queue_.empty()) return ~0ULL;
  return queue_.front().enqueue_us + config_.window_us;
}

void RequestBatcher::Close() {
  // Under the lock so the flag cannot flip inside a concurrent Enqueue's
  // check-then-push window (see Enqueue).
  MutexLock lock(mu_);
  closed_.store(true, std::memory_order_release);
}

BatcherStats RequestBatcher::Stats() const {
  BatcherStats s;
#define PD2GL_FILL(name) s.name = counters_.name->Value();
  PD2GL_BATCHER_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  s.queued = Depth();
  return s;
}

}  // namespace platod2gl::serve
