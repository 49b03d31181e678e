// GraphServer: the asynchronous serving front end over GraphCluster.
//
// Ties the serving layer together (docs/serving.md):
//
//   Submit(req, now)  -> planner validation -> admission (policy matrix)
//                        -> RequestBatcher queue
//   Pump(now)         -> retire virtually-complete batches (free window
//                        slots, record latencies) -> form due batches ->
//                        PlanExecutor::ExecuteBatch under one pinned
//                        epoch -> schedule completion on the virtual
//                        clock
//
// Time is VIRTUAL, like the cluster's RPC accounting: the server models a
// single execution pipeline that is busy until `busy_until_us_`. A batch
// formed at time t starts at max(t, busy_until), runs for the executor's
// virtual service time, and completes at start + service; each request's
// latency is completion - arrival (0 when a client's own clock stamped
// the arrival later than the completion). Under offered load beyond the
// pipeline's capacity, busy_until runs ahead of arrivals, queues grow,
// the admission window fills, and the configured policy (block / reject /
// shed-oldest) decides who pays — exactly the dynamics an SLO bench needs
// (bench/bench_serve_slo.cc), with none of the wall-clock nondeterminism.
//
// Latencies feed one global and per-tenant LatencyHistograms; SLO windows
// are cut race-free with HistogramSnapshot::DeltaSince (never Reset()).
//
// Observability: the server owns an obs::MetricRegistry covering its own
// counters plus the admission and batcher series, and an obs::TraceSink
// of completed request traces. Every request gets a deterministic trace
// id at the door (obs::DeriveTraceId); spans open at Submit, fan out
// through the executor per plan step and shard, and close at retirement
// — all on the virtual clock. EndSloWindow attaches the window's
// worst-latency trace id to a violated report.
//
// Threading: Submit may be called from many client threads; Pump/Drain
// from one driver. Everything deterministic in the tests/bench runs on a
// single driver thread, which makes admission and shed outcomes a pure
// function of (seed, arrival order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/sched_hooks.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/epoch_coordinator.h"
#include "serve/admission.h"
#include "serve/executor.h"
#include "serve/query_plan.h"
#include "serve/request_batcher.h"

namespace platod2gl::serve {

struct ServeConfig {
  AdmissionConfig admission;
  BatcherConfig batcher;
  PlannerLimits limits;
  std::size_t num_tenants = 4;
  /// p99 target per SLO window in virtual microseconds; 0 = untracked.
  std::uint64_t slo_target_p99_us = 0;
  /// Completed traces retained in the server's TraceSink ring.
  std::size_t trace_capacity = 128;
};

/// One SLO window cut by EndSloWindow(): interval percentiles over the
/// requests that completed since the previous cut.
struct SloReport {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool violated = false;  ///< count > 0 and p99 above the configured target
  /// Attached iff `violated`: the worst-latency trace retired in this
  /// window — the execution record of (one of) the requests that blew
  /// the tail. Look it up via traces().Find or `pd2gl trace`.
  std::uint64_t exemplar_trace_id = 0;
};

/// Server counters, one row each: exported as pd2gl_serve_<name> and
/// snapshotted into ServeStats by GraphServer::Stats().
#define PD2GL_SERVE_COUNTERS(X)                                                \
  X(submitted)                                                                 \
  X(completed)        /* responses retired (incl. shed) */                     \
  X(ok)                                                                        \
  X(degraded)                                                                  \
  X(shed)             /* completed as kShed */                                 \
  X(invalid)          /* bad tenant / plan validation failures */              \
  X(rejected)         /* refused by admission (reject policy) */               \
  X(batches)                                                                   \
  X(batched_requests)                                                          \
  X(rpc_rounds)                                                                \
  X(virtual_busy_us)  /* summed batch service time */                          \
  X(slo_windows)                                                               \
  X(slo_violations)

/// The counters; admission and batcher stats ride along so one call tells
/// the whole story.
struct ServeStats {
  PD2GL_SERVE_COUNTERS(PD2GL_STATS_FIELD)
  AdmissionStats admission;
  BatcherStats batcher;
};

class GraphServer {
 public:
  GraphServer(GraphCluster* cluster, EpochCoordinator* epochs,
              ServeConfig config = {});

  GraphServer(const GraphServer&) = delete;
  GraphServer& operator=(const GraphServer&) = delete;

  /// Submit one request at virtual time `now_us`: validate, admit, queue.
  /// Non-OK: kInvalidArgument (tenant/plan), kResourceExhausted (reject
  /// policy, window/quota full and nothing sheddable), kUnavailable
  /// (closed).
  Status Submit(QueryRequest req, std::uint64_t now_us);

  /// Advance the virtual clock: retire virtually-complete batches, then
  /// form and execute every batch due at `now_us`. Returns the number of
  /// requests dispatched into batches.
  std::size_t Pump(std::uint64_t now_us);

  /// Shutdown flush: force-form every queued request into batches,
  /// execute them, and retire everything regardless of the clock.
  /// Returns the number of requests dispatched.
  std::size_t Drain(std::uint64_t now_us);

  /// Stop admitting (admission + batcher close).
  /// Queued work remains drainable: Close() then Drain() is clean
  /// shutdown, mirroring the ingestor.
  void Close();

  /// Move out every response retired so far (completion <= the last
  /// retire point), in completion order.
  std::vector<QueryResponse> TakeCompleted();

  /// Cut an SLO window: interval p50/p99 over completions since the last
  /// cut, via racefree snapshot deltas.
  SloReport EndSloWindow();

  ServeStats Stats() const;

  const LatencyHistogram& latency() const { return latency_; }
  /// Per-tenant latency distribution; nullptr for tenant >= num_tenants.
  const LatencyHistogram* tenant_latency(std::uint32_t tenant) const {
    return tenant < tenant_latency_.size() ? tenant_latency_[tenant].get()
                                           : nullptr;
  }

  std::uint64_t busy_until_us() const {
    return busy_until_snapshot_.load(std::memory_order_acquire);
  }

  const ServeConfig& config() const { return config_; }
  AdmissionController& admission() { return admission_; }
  RequestBatcher& batcher() { return batcher_; }

  /// The serving stack's registry: pd2gl_serve_* counters, the latency
  /// histograms (global + {tenant="t"}), and the admission/batcher series
  /// (registered here, not in private registries).
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }
  /// Completed traces, newest-`trace_capacity` retained.
  obs::TraceSink& traces() { return trace_sink_; }
  const obs::TraceSink& traces() const { return trace_sink_; }

 private:
  /// A batch whose virtual execution is still in flight: it holds its
  /// admission slots until the clock passes `completion_us`.
  struct InFlightBatch {
    std::uint64_t completion_us = 0;
    std::uint64_t seq = 0;  ///< dispatch order, the deterministic tiebreak
    std::vector<QueryResponse> responses;
    std::vector<std::uint32_t> tenants;
    /// Parallel to `responses`: the still-open trace of each request and
    /// its root span, closed at retirement.
    std::vector<std::unique_ptr<obs::TraceBuilder>> traces;
    std::vector<std::uint32_t> root_spans;
  };
  struct LaterCompletion {
    bool operator()(const InFlightBatch& a, const InFlightBatch& b) const {
      if (a.completion_us != b.completion_us) {
        return a.completion_us > b.completion_us;
      }
      return a.seq > b.seq;
    }
  };

  /// Retire every in-flight batch with completion_us <= now (or all of
  /// them when `all`): free admission slots, record latencies, publish
  /// responses.
  void RetireLocked(std::uint64_t now_us, bool all) REQUIRES(mu_);
  /// Form/execute due batches at now_us (force = drain path).
  std::size_t DispatchLocked(std::uint64_t now_us, bool force) REQUIRES(mu_);
  /// Complete one shed victim without executing it.
  void CompleteShedLocked(PendingRequest victim, std::uint64_t now_us)
      REQUIRES(mu_);

  ServeConfig config_;
  // Declared before admission_/batcher_ so the registry outlives every
  // series they register into it.
  obs::MetricRegistry metrics_;
  PlanExecutor executor_;
  AdmissionController admission_;
  RequestBatcher batcher_;
  obs::TraceSink trace_sink_;
  // The pd2gl_serve_* handles, one per list row.
  struct {
    PD2GL_SERVE_COUNTERS(PD2GL_COUNTER_HANDLE)
  } counters_;

  mutable Mutex mu_;
  std::uint64_t busy_until_us_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_batch_seq_ GUARDED_BY(mu_) = 0;
  std::priority_queue<InFlightBatch, std::vector<InFlightBatch>,
                      LaterCompletion>
      in_flight_ GUARDED_BY(mu_);
  std::vector<QueryResponse> completed_ GUARDED_BY(mu_);
  HistogramSnapshot slo_window_base_ GUARDED_BY(mu_);
  /// SLO-exemplar tracking, reset every EndSloWindow cut: the worst
  /// retired latency this window and the trace that recorded it.
  std::uint64_t window_worst_us_ GUARDED_BY(mu_) = 0;
  std::uint64_t window_exemplar_trace_ GUARDED_BY(mu_) = 0;

  LatencyHistogram latency_;
  std::vector<std::unique_ptr<LatencyHistogram>> tenant_latency_;

  // STATE atomic (schedule point under PD2GL_SCHEDCHECK); the former
  // tally atomics live in the registry counters above.
  sched::Atomic<std::uint64_t> busy_until_snapshot_{0};
};

}  // namespace platod2gl::serve
