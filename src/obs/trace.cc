#include "obs/trace.h"

#include <utility>

#include "common/random.h"

namespace platod2gl::obs {

std::uint64_t DeriveTraceId(std::uint32_t tenant, std::uint64_t request_id,
                            std::uint64_t rng_seed) {
  // SplitMix64 finalizer over the mixed identity; the same constants the
  // rest of the codebase uses for seed derivation (common/random.h).
  std::uint64_t z = rng_seed;
  z ^= request_id + 0x9E3779B97F4A7C15ULL;
  z ^= (static_cast<std::uint64_t>(tenant) + 1) * 0xBF58476D1CE4E5B9ULL;
  z = Mix64(z);
  return z == 0 ? 0x9E3779B97F4A7C15ULL : z;
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kServeRequest:
      return "serve.request";
    case SpanKind::kPlanTraverse:
      return "plan.traverse";
    case SpanKind::kPlanSample:
      return "plan.sample";
    case SpanKind::kPlanNegative:
      return "plan.negative";
    case SpanKind::kPlanGather:
      return "plan.gather";
    case SpanKind::kRpcShard:
      return "rpc.shard";
  }
  return "unknown";
}

TraceBuilder::TraceBuilder(std::uint64_t trace_id, std::size_t max_spans)
    : trace_id_(trace_id), max_spans_(max_spans) {}

std::uint32_t TraceBuilder::StartSpan(SpanKind kind, std::uint32_t parent,
                                      std::uint64_t start_us,
                                      std::uint32_t step, std::uint32_t shard,
                                      std::uint64_t items) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return kDroppedSpan;
  }
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size());
  s.parent = parent;
  s.kind = kind;
  s.step = step;
  s.shard = shard;
  s.items = items;
  s.start_us = start_us;
  spans_.push_back(s);
  return s.id;
}

void TraceBuilder::EndSpan(std::uint32_t id, std::uint64_t end_us) {
  if (id >= spans_.size()) return;  // dropped span: nothing to close
  Span& s = spans_[id];
  s.end_us = end_us < s.start_us ? s.start_us : end_us;
  s.closed = true;
}

void TraceBuilder::CloseAll(std::uint64_t end_us) {
  for (Span& s : spans_) {
    if (!s.closed) {
      s.end_us = end_us < s.start_us ? s.start_us : end_us;
      s.closed = true;
    }
  }
}

bool TraceBuilder::AllClosed() const {
  for (const Span& s : spans_) {
    if (!s.closed) return false;
  }
  return true;
}

Trace TraceBuilder::Finish(std::uint32_t tenant, std::uint64_t request_id,
                           std::uint8_t status) && {
  Trace t;
  t.trace_id = trace_id_;
  t.tenant = tenant;
  t.request_id = request_id;
  t.status = status;
  t.spans = std::move(spans_);
  return t;
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceSink::Publish(Trace trace) {
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(trace));
  } else {
    ring_[next_ % capacity_] = std::move(trace);
  }
  ++next_;
  ++published_;
}

std::vector<Trace> TraceSink::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<Trace> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Oldest-first: the slot the cursor points at is the next overwrite
    // victim, i.e. the oldest retained trace.
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::optional<Trace> TraceSink::Find(std::uint64_t trace_id) const {
  MutexLock lock(mu_);
  for (const Trace& t : ring_) {
    if (t.trace_id == trace_id) return t;
  }
  return std::nullopt;
}

std::uint64_t TraceSink::published() const {
  MutexLock lock(mu_);
  return published_;
}

std::uint64_t TraceSink::evicted() const {
  MutexLock lock(mu_);
  return published_ - ring_.size();
}

}  // namespace platod2gl::obs
