#include "serve/server.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

namespace platod2gl::serve {
namespace {

/// Virtual time from `from_us` to `to_us`, 0 when `to_us` is earlier:
/// client threads submit with their own clocks, so a batch can complete
/// (or a shed happen) before a request's arrival stamp.
std::uint64_t ElapsedUs(std::uint64_t from_us, std::uint64_t to_us) {
  return to_us > from_us ? to_us - from_us : 0;
}

}  // namespace

GraphServer::GraphServer(GraphCluster* cluster, EpochCoordinator* epochs,
                         ServeConfig config)
    : config_(config),
      executor_(cluster, epochs),
      admission_(config.admission, &metrics_),
      batcher_(config.batcher, &metrics_),
      trace_sink_(std::max<std::size_t>(1, config.trace_capacity)) {
  config_.num_tenants = std::max<std::size_t>(1, config_.num_tenants);
  config_.limits.num_relations =
      std::max<std::size_t>(1, config_.limits.num_relations);
  tenant_latency_.reserve(config_.num_tenants);
  for (std::size_t t = 0; t < config_.num_tenants; ++t) {
    tenant_latency_.push_back(std::make_unique<LatencyHistogram>());
    metrics_.RegisterExternalHistogram("pd2gl_serve_tenant_latency_nanos",
                                       {{"tenant", std::to_string(t)}},
                                       tenant_latency_.back().get());
  }
  metrics_.RegisterExternalHistogram("pd2gl_serve_latency_nanos", {},
                                     &latency_);
#define PD2GL_REGISTER(name) \
  counters_.name = metrics_.RegisterCounter("pd2gl_serve_" #name);
  PD2GL_SERVE_COUNTERS(PD2GL_REGISTER)
#undef PD2GL_REGISTER
}

void GraphServer::RetireLocked(std::uint64_t now_us, bool all) {
  while (!in_flight_.empty() &&
         (all || in_flight_.top().completion_us <= now_us)) {
    // priority_queue::top is const; the move is safe because we pop
    // immediately and never touch the moved-from top again.
    InFlightBatch batch =
        std::move(const_cast<InFlightBatch&>(in_flight_.top()));
    in_flight_.pop();
    for (std::size_t i = 0; i < batch.responses.size(); ++i) {
      QueryResponse& resp = batch.responses[i];
      admission_.Release(batch.tenants[i]);
      const std::uint64_t nanos = resp.latency_us * 1000;
      latency_.Record(nanos);
      if (resp.tenant < tenant_latency_.size()) {
        tenant_latency_[resp.tenant]->Record(nanos);
      }
      counters_.completed->Add(1);
      if (resp.status == RequestStatus::kDegraded) {
        counters_.degraded->Add(1);
      } else {
        counters_.ok->Add(1);
      }
      obs::TraceBuilder& tb = *batch.traces[i];
      tb.EndSpan(batch.root_spans[i], batch.completion_us);
      // SLO-exemplar candidate: keep the worst latency of the current
      // window. ">" takes the first-retired among ties, which is
      // deterministic under the single-driver pump.
      if (resp.latency_us > window_worst_us_ || window_exemplar_trace_ == 0) {
        window_worst_us_ = resp.latency_us;
        window_exemplar_trace_ = tb.trace_id();
      }
      trace_sink_.Publish(std::move(tb).Finish(
          resp.tenant, resp.request_id,
          static_cast<std::uint8_t>(resp.status)));
      completed_.push_back(std::move(resp));
    }
  }
}

void GraphServer::CompleteShedLocked(PendingRequest victim,
                                     std::uint64_t now_us) {
  admission_.Release(victim.request.tenant);
  QueryResponse resp;
  resp.tenant = victim.request.tenant;
  resp.request_id = victim.request.request_id;
  resp.status = RequestStatus::kShed;
  resp.trace_id = victim.trace->trace_id();
  resp.latency_us = ElapsedUs(victim.arrival_us, now_us);
  // Shed latencies are intentionally NOT recorded into the SLO
  // histograms: a shed is its own counted outcome, not a served latency.
  counters_.shed->Add(1);
  counters_.completed->Add(1);
  // The victim never executed; CloseAll ends its root (and anything else
  // still open) so the published trace leaks no open spans.
  victim.trace->CloseAll(now_us);
  trace_sink_.Publish(std::move(*victim.trace)
                          .Finish(resp.tenant, resp.request_id,
                                  static_cast<std::uint8_t>(resp.status)));
  completed_.push_back(std::move(resp));
}

Status GraphServer::Submit(QueryRequest req, std::uint64_t now_us) {
  counters_.submitted->Add(1);
  {
    // Free any window slots whose virtual completion the clock passed —
    // admission pressure must reflect "now", not the last Pump.
    MutexLock lock(mu_);
    RetireLocked(now_us, /*all=*/false);
  }
  if (req.tenant >= config_.num_tenants) {
    counters_.invalid->Add(1);
    return Status::InvalidArgument("tenant " + std::to_string(req.tenant) +
                                   " >= num_tenants " +
                                   std::to_string(config_.num_tenants));
  }
  PendingRequest pending;
  Status valid = ValidateAndLower(req.plan, req.seeds.size(), config_.limits,
                                  &pending.plan);
  if (!valid.ok()) {
    counters_.invalid->Add(1);
    return valid;
  }

  // Admission: the policy matrix decides what a full window means.
  switch (config_.admission.policy) {
    case AdmissionPolicy::kReject: {
      const AdmissionController::Verdict v = admission_.TryAdmit(req.tenant);
      if (v == AdmissionController::Verdict::kClosed) {
        return Status::Unavailable("server closed");
      }
      if (v != AdmissionController::Verdict::kAdmitted) {
        counters_.rejected->Add(1);
        return Status::ResourceExhausted(
            v == AdmissionController::Verdict::kWindowFull
                ? "admission window full"
                : "tenant quota exhausted");
      }
      break;
    }
    case AdmissionPolicy::kShedOldest: {
      // Shed-oldest: evict the longest-waiting queued request (same
      // tenant when it is the quota that is full) until the probe
      // succeeds. Probes don't count as rejects — the shed is the
      // counted outcome. Deterministic: driven purely by arrival order.
      while (true) {
        const AdmissionController::Verdict v =
            admission_.TryAdmit(req.tenant, /*count_reject=*/false);
        if (v == AdmissionController::Verdict::kAdmitted) break;
        if (v == AdmissionController::Verdict::kClosed) {
          return Status::Unavailable("server closed");
        }
        std::optional<PendingRequest> victim = batcher_.ShedOldest(
            v == AdmissionController::Verdict::kQuotaFull
                ? std::optional<std::uint32_t>(req.tenant)
                : std::nullopt);
        if (!victim.has_value()) {
          // Nothing sheddable (the window is held by executing batches):
          // fall back to a counted reject.
          counters_.rejected->Add(1);
          return Status::ResourceExhausted(
              "admission window full of in-flight work");
        }
        MutexLock lock(mu_);
        CompleteShedLocked(std::move(*victim), now_us);
      }
      break;
    }
  }

  const std::uint32_t tenant = req.tenant;
  // Trace identity is pure in the request identity (tenant, request_id,
  // rng_seed) — no global sequence, no wall clock — so batched, solo and
  // retried executions agree.
  pending.trace = std::make_unique<obs::TraceBuilder>(
      obs::DeriveTraceId(req.tenant, req.request_id, req.rng_seed));
  pending.root_span =
      pending.trace->StartSpan(obs::SpanKind::kServeRequest,
                               obs::kNoParentSpan, now_us, 0, 0,
                               req.seeds.size());
  pending.request = std::move(req);
  pending.arrival_us = now_us;
  Status queued = batcher_.Enqueue(std::move(pending), now_us);
  if (!queued.ok()) {
    // Closed between admission and enqueue: hand the slot back.
    admission_.Release(tenant);
    return queued;
  }
  return Status::Ok();
}

std::size_t GraphServer::DispatchLocked(std::uint64_t now_us, bool force) {
  std::size_t dispatched = 0;
  while (true) {
    std::vector<PendingRequest> batch = batcher_.FormBatch(now_us, force);
    if (batch.empty()) break;
    const std::uint64_t start = std::max(now_us, busy_until_us_);
    ExecOutcome exec = executor_.ExecuteBatch(batch, start);
    const std::uint64_t completion = start + exec.virtual_us;
    busy_until_us_ = completion;
    busy_until_snapshot_.store(completion, std::memory_order_release);

    InFlightBatch in_flight;
    in_flight.completion_us = completion;
    in_flight.seq = next_batch_seq_++;
    in_flight.tenants.reserve(batch.size());
    in_flight.traces.reserve(batch.size());
    in_flight.root_spans.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      exec.responses[i].latency_us =
          ElapsedUs(batch[i].arrival_us, completion);
      exec.responses[i].trace_id = batch[i].trace->trace_id();
      in_flight.tenants.push_back(batch[i].request.tenant);
      in_flight.traces.push_back(std::move(batch[i].trace));
      in_flight.root_spans.push_back(batch[i].root_span);
    }
    in_flight.responses = std::move(exec.responses);
    in_flight_.push(std::move(in_flight));

    dispatched += batch.size();
    counters_.batches->Add(1);
    counters_.batched_requests->Add(batch.size());
    counters_.rpc_rounds->Add(exec.rounds);
    counters_.virtual_busy_us->Add(exec.virtual_us);
  }
  return dispatched;
}

std::size_t GraphServer::Pump(std::uint64_t now_us) {
  MutexLock lock(mu_);
  RetireLocked(now_us, /*all=*/false);
  const std::size_t dispatched = DispatchLocked(now_us, /*force=*/false);
  RetireLocked(now_us, /*all=*/false);
  return dispatched;
}

std::size_t GraphServer::Drain(std::uint64_t now_us) {
  MutexLock lock(mu_);
  const std::size_t dispatched = DispatchLocked(now_us, /*force=*/true);
  RetireLocked(now_us, /*all=*/true);
  return dispatched;
}

void GraphServer::Close() {
  admission_.Close();
  batcher_.Close();
}

std::vector<QueryResponse> GraphServer::TakeCompleted() {
  MutexLock lock(mu_);
  std::vector<QueryResponse> out = std::move(completed_);
  completed_.clear();
  return out;
}

SloReport GraphServer::EndSloWindow() {
  MutexLock lock(mu_);
  const HistogramSnapshot snap = latency_.Snapshot();
  const HistogramSnapshot window = snap.DeltaSince(slo_window_base_);
  slo_window_base_ = snap;
  SloReport report;
  report.count = window.Count();
  report.p50_us = window.PercentileMicros(50.0);
  report.p99_us = window.PercentileMicros(99.0);
  report.violated = config_.slo_target_p99_us > 0 && report.count > 0 &&
                    report.p99_us >
                        static_cast<double>(config_.slo_target_p99_us);
  if (report.violated) {
    report.exemplar_trace_id = window_exemplar_trace_;
  }
  // The exemplar trackers are per-window: reset at every cut.
  window_worst_us_ = 0;
  window_exemplar_trace_ = 0;
  counters_.slo_windows->Add(1);
  if (report.violated) {
    counters_.slo_violations->Add(1);
  }
  return report;
}

ServeStats GraphServer::Stats() const {
  ServeStats s;
#define PD2GL_FILL(name) s.name = counters_.name->Value();
  PD2GL_SERVE_COUNTERS(PD2GL_FILL)
#undef PD2GL_FILL
  s.admission = admission_.Stats();
  s.batcher = batcher_.Stats();
  return s;
}

}  // namespace platod2gl::serve
