// TemporalEdgeLog: the dynamic graph as a timestamped update series.
//
// The paper models a dynamic graph as {G^(t) | t in [1, T]} (Section
// II-A): the graph at timestamp t is the result of applying every update
// with timestamp <= t. This log is the substrate for that semantics —
// training pipelines append interactions as they arrive, snapshot-build
// G^(t) for offline evaluation, or replay half-open windows (t1, t2] to
// roll a live store forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/graph_store.h"

namespace platod2gl {

struct TimedUpdate {
  std::uint64_t timestamp = 0;
  EdgeUpdate update;
};

class TemporalEdgeLog {
 public:
  TemporalEdgeLog() = default;

  /// Append an update; timestamps must be non-decreasing (monotone event
  /// time). A time regression is rejected with kOutOfRange — the update is
  /// NOT stored — and bumps the rejected() counter so writers (e.g. the
  /// shard WAL) can observe lost updates instead of dropping them silently.
  Status Append(std::uint64_t timestamp, const EdgeUpdate& update);

  /// Convenience: append an insertion.
  Status AppendInsert(std::uint64_t timestamp, const Edge& e) {
    return Append(timestamp, EdgeUpdate{UpdateKind::kInsert, e});
  }

  /// Append a whole batch with a single monotonicity scan, growing the
  /// log geometrically — the MicroBatcher's hot path. Entry-for-entry
  /// equivalent to calling Append in order: each entry older than the
  /// running tail timestamp is skipped and counted in rejected(); later
  /// valid entries still land. Returns the number accepted.
  std::size_t AppendBatch(std::span<const TimedUpdate> batch);

  std::size_t size() const { return log_.size(); }
  bool empty() const { return log_.empty(); }

  /// Number of appends rejected for violating time monotonicity.
  std::uint64_t rejected() const { return rejected_; }

  /// Earliest / latest timestamps (0 when empty).
  std::uint64_t MinTimestamp() const {
    return log_.empty() ? 0 : log_.front().timestamp;
  }
  std::uint64_t MaxTimestamp() const {
    return log_.empty() ? 0 : log_.back().timestamp;
  }

  /// Apply every update with from < timestamp <= to, in order. Rolls a
  /// store at G^(from) forward to G^(to). Returns the number applied.
  std::size_t ReplayInto(GraphStore* graph, std::uint64_t from,
                         std::uint64_t to) const;

  /// ReplayInto with a truncation-gap check: replaying from below the
  /// truncation watermark would silently skip the erased prefix and build
  /// a wrong store, so it is rejected with kDataLoss and applies NOTHING.
  /// `from == truncated_through()` is the exact boundary and is legal (the
  /// caller's base state already covers the erased prefix);
  /// `from == truncated_through() - 1` is the off-by-one this guards
  /// (regression test in tests/test_temporal.cc). The shard recovery and
  /// replica bootstrap/promotion paths all replay through this entry.
  Status CheckedReplayInto(GraphStore* graph, std::uint64_t from,
                           std::uint64_t to, std::size_t* applied) const;

  /// Build G^(t) from scratch into an empty store (every update with
  /// timestamp <= t). Returns the number applied.
  std::size_t SnapshotInto(GraphStore* graph, std::uint64_t t) const {
    return ReplayInto(graph, 0, t);
  }

  /// The raw log entries in the half-open window (from, to], copied into
  /// a caller-owned buffer, reusing its capacity — the replication sender
  /// calls this once per ship round, and the windows are similarly sized
  /// round over round.
  void WindowInto(std::uint64_t from, std::uint64_t to,
                  std::vector<TimedUpdate>* out) const;

  /// WindowInto() a fresh vector.
  std::vector<TimedUpdate> Window(std::uint64_t from, std::uint64_t to) const {
    std::vector<TimedUpdate> out;
    WindowInto(from, to, &out);
    return out;
  }

  /// Drop every entry with timestamp <= t (checkpoint truncation: once a
  /// checkpoint covers G^(t), the prefix is no longer needed for
  /// recovery). Later ReplayInto(from >= t, ...) calls are unaffected.
  /// Advances truncated_through() to max(truncated_through(), t) even when
  /// nothing is erased, so the covered-prefix watermark survives empty
  /// windows. Returns the number of entries removed.
  std::size_t TruncateThrough(std::uint64_t t);

  /// Highest timestamp a TruncateThrough call has ever covered: entries at
  /// or below it may be gone, so replays must start at or above it (see
  /// CheckedReplayInto). 0 = never truncated, the full history is intact.
  std::uint64_t truncated_through() const { return truncated_through_; }

  std::size_t MemoryUsage() const {
    return log_.capacity() * sizeof(TimedUpdate);
  }

 private:
  /// Index of the first entry with timestamp > t.
  std::size_t UpperBound(std::uint64_t t) const;

  std::vector<TimedUpdate> log_;  // sorted by timestamp (append-enforced)
  std::uint64_t rejected_ = 0;    // appends refused (time regression)
  std::uint64_t truncated_through_ = 0;  // erased-prefix watermark
};

}  // namespace platod2gl
