// Request tracing in virtual time (DESIGN.md §15, docs/observability.md).
//
// Every served request can carry a trace: a bounded tree of spans whose
// timestamps live on the SAME virtual clock the server's latency
// accounting uses, so a trace is not a statistical sample of one lucky
// wall-clock run — it is the deterministic execution record of that
// request. Two properties fall out of determinism and are pinned in
// tests/test_trace.cc:
//
//  * trace ids derive purely from the request identity
//    (DeriveTraceId(tenant, request_id, rng_seed)) — no global sequence,
//    no wall clock — so solo and batched executions of the same request
//    carry the same id;
//  * the span TREE (structure, kinds, per-step shard fan-out) of a
//    batched execution is identical to the solo execution of the same
//    request, because span emission follows the plan and the
//    partitioner's shard routing, both of which batching preserves.
//
// Layering: obs knows nothing about serve/dist types. The serving layer
// owns where spans start/stop; this file owns the trace id derivation,
// the bounded builder and the completed-trace ring (TraceSink).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace platod2gl::obs {

/// Deterministic trace id: a SplitMix64 finalizer over the request
/// identity. Pure — independent of batching, admission order, retries,
/// and the wall clock. Never returns 0.
std::uint64_t DeriveTraceId(std::uint32_t tenant, std::uint64_t request_id,
                            std::uint64_t rng_seed);

enum class SpanKind : std::uint8_t {
  kServeRequest = 0,  ///< root: admission -> retirement
  kPlanTraverse = 1,  ///< one plan step's traverse round
  kPlanSample = 2,    ///< one plan step's sample round
  kPlanNegative = 3,  ///< client-side negative sampling (no RPC)
  kPlanGather = 4,    ///< one plan step's gather round
  kRpcShard = 5,      ///< one shard's share of a step round
};

const char* SpanKindName(SpanKind kind);

inline constexpr std::uint32_t kNoParentSpan = 0xFFFFFFFFu;

/// One span. Timestamps are virtual microseconds; `end_us` is only
/// meaningful once `closed`.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParentSpan;
  SpanKind kind = SpanKind::kServeRequest;
  std::uint32_t step = 0;   ///< plan step index (plan/rpc spans)
  std::uint32_t shard = 0;  ///< rpc spans
  std::uint64_t items = 0;  ///< seeds/rows this span covered
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  bool closed = false;

  friend bool operator==(const Span&, const Span&) = default;
};

/// A completed trace as published to the sink.
struct Trace {
  std::uint64_t trace_id = 0;
  std::uint32_t tenant = 0;
  std::uint64_t request_id = 0;
  std::uint8_t status = 0;  ///< serve::RequestStatus, untyped to keep layering
  std::vector<Span> spans;  ///< creation order; spans[0] is the root

  /// Root latency (0 if the root never closed — a builder bug).
  std::uint64_t DurationUs() const {
    return spans.empty() || !spans[0].closed
               ? 0
               : spans[0].end_us - spans[0].start_us;
  }
};

/// Per-request span builder. Bounded: past `max_spans` StartSpan returns
/// kDroppedSpan and only counts, so a hostile plan cannot grow the buffer.
/// Move-only, owned by the in-flight request (serve::PendingRequest); the
/// server finishes it into the TraceSink at retirement.
class TraceBuilder {
 public:
  static constexpr std::uint32_t kDroppedSpan = 0xFFFFFFFEu;
  static constexpr std::size_t kDefaultMaxSpans = 96;

  explicit TraceBuilder(std::uint64_t trace_id,
                        std::size_t max_spans = kDefaultMaxSpans);

  TraceBuilder(TraceBuilder&&) = default;
  TraceBuilder& operator=(TraceBuilder&&) = default;
  TraceBuilder(const TraceBuilder&) = delete;
  TraceBuilder& operator=(const TraceBuilder&) = delete;

  /// Open a span; ids are assigned sequentially in creation order (the
  /// determinism anchor for batched-vs-solo tree comparison).
  std::uint32_t StartSpan(SpanKind kind, std::uint32_t parent,
                          std::uint64_t start_us, std::uint32_t step = 0,
                          std::uint32_t shard = 0, std::uint64_t items = 0);
  void EndSpan(std::uint32_t id, std::uint64_t end_us);
  /// Close every still-open span at `end_us` — the shed/teardown path, so
  /// an evicted request never leaks open spans.
  void CloseAll(std::uint64_t end_us);

  bool AllClosed() const;
  std::uint64_t dropped_spans() const { return dropped_; }
  std::uint64_t trace_id() const { return trace_id_; }

  /// Consume the builder into a publishable trace.
  Trace Finish(std::uint32_t tenant, std::uint64_t request_id,
               std::uint8_t status) &&;

 private:
  std::uint64_t trace_id_ = 0;
  std::size_t max_spans_ = kDefaultMaxSpans;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Bounded ring of completed traces (newest win). One sink per
/// GraphServer; memory is capacity x max_spans regardless of load.
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 128);

  void Publish(Trace trace);

  /// Every retained trace, oldest first.
  std::vector<Trace> Snapshot() const;
  std::optional<Trace> Find(std::uint64_t trace_id) const;

  std::uint64_t published() const;
  std::uint64_t evicted() const;

 private:
  std::size_t capacity_;
  mutable Mutex mu_;
  std::vector<Trace> ring_ GUARDED_BY(mu_);
  std::size_t next_ GUARDED_BY(mu_) = 0;  ///< ring insertion cursor
  std::uint64_t published_ GUARDED_BY(mu_) = 0;
};

}  // namespace platod2gl::obs
