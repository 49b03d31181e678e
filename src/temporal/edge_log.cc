#include "temporal/edge_log.h"

#include <algorithm>

namespace platod2gl {

Status TemporalEdgeLog::Append(std::uint64_t timestamp,
                               const EdgeUpdate& update) {
  if (!log_.empty() && timestamp < log_.back().timestamp) {
    ++rejected_;
    return Status::OutOfRange("time regression: append at " +
                              std::to_string(timestamp) + " after " +
                              std::to_string(log_.back().timestamp));
  }
  log_.push_back(TimedUpdate{timestamp, update});
  return Status::Ok();
}

std::size_t TemporalEdgeLog::AppendBatch(std::span<const TimedUpdate> batch) {
  // Grow geometrically: reserving exactly size() + batch.size() would
  // reallocate (and copy the whole log) on every micro-batch.
  const std::size_t needed = log_.size() + batch.size();
  if (needed > log_.capacity()) {
    log_.reserve(std::max(needed, 2 * log_.capacity()));
  }
  std::uint64_t tail = log_.empty() ? 0 : log_.back().timestamp;
  bool have_tail = !log_.empty();
  std::size_t accepted = 0;
  for (const TimedUpdate& e : batch) {
    if (have_tail && e.timestamp < tail) {
      ++rejected_;
      continue;
    }
    log_.push_back(e);
    tail = e.timestamp;
    have_tail = true;
    ++accepted;
  }
  return accepted;
}

std::size_t TemporalEdgeLog::TruncateThrough(std::uint64_t t) {
  const std::size_t n = UpperBound(t);
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(n));
  // Record the watermark even when the window was empty: a checkpoint that
  // covers (and truncates) through t makes every replay from below t
  // unsound whether or not entries happened to exist there.
  truncated_through_ = std::max(truncated_through_, t);
  return n;
}

std::size_t TemporalEdgeLog::UpperBound(std::uint64_t t) const {
  return static_cast<std::size_t>(
      std::upper_bound(log_.begin(), log_.end(), t,
                       [](std::uint64_t value, const TimedUpdate& e) {
                         return value < e.timestamp;
                       }) -
      log_.begin());
}

std::size_t TemporalEdgeLog::ReplayInto(GraphStore* graph, std::uint64_t from,
                                        std::uint64_t to) const {
  const std::size_t begin = UpperBound(from);
  const std::size_t end = UpperBound(to);
  for (std::size_t i = begin; i < end; ++i) {
    graph->Apply(log_[i].update);
  }
  return end - begin;
}

Status TemporalEdgeLog::CheckedReplayInto(GraphStore* graph,
                                          std::uint64_t from, std::uint64_t to,
                                          std::size_t* applied) const {
  if (from < truncated_through_) {
    // The half-open window (from, to] starts inside the erased prefix:
    // entries in (from, truncated_through_] are gone, so the replay would
    // be missing updates. Note the boundary: from == truncated_through_
    // is sound (nothing below it is requested), one less is not.
    return Status::DataLoss(
        "replay window (" + std::to_string(from) + ", " + std::to_string(to) +
        "] starts below the truncation watermark " +
        std::to_string(truncated_through_));
  }
  const std::size_t n = ReplayInto(graph, from, to);
  if (applied != nullptr) *applied = n;
  return Status::Ok();
}

void TemporalEdgeLog::WindowInto(std::uint64_t from, std::uint64_t to,
                                 std::vector<TimedUpdate>* out) const {
  const std::size_t begin = UpperBound(from);
  const std::size_t end = UpperBound(to);
  out->assign(log_.begin() + begin, log_.begin() + end);
}

}  // namespace platod2gl
