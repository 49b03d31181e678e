// Request tracing tests (DESIGN.md §15, docs/observability.md): trace-id
// derivation purity, the bounded span builder and completed-trace ring,
// and the serving-layer determinism contracts — a batched execution emits
// the SAME span tree as the solo execution of the same request, a shed
// request never leaks an open span, and a fault-injected SLO violation
// window carries an exemplar trace spanning serve -> cluster -> shard.
// Labels: obs;serve.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "dist/cluster.h"
#include "obs/trace.h"
#include "pipeline/epoch_coordinator.h"
#include "serve/query_plan.h"
#include "serve/server.h"

namespace platod2gl {
namespace {

using obs::DeriveTraceId;
using obs::kNoParentSpan;
using obs::Span;
using obs::SpanKind;
using obs::Trace;
using obs::TraceBuilder;
using obs::TraceSink;
using serve::GraphServer;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::RequestStatus;
using serve::ServeConfig;
using serve::SloReport;

// ---------------------------------------------------------------------------
// DeriveTraceId: pure, discriminating, never zero.
// ---------------------------------------------------------------------------

TEST(DeriveTraceIdTest, PureAndDiscriminating) {
  EXPECT_EQ(DeriveTraceId(1, 2, 3), DeriveTraceId(1, 2, 3));
  EXPECT_NE(DeriveTraceId(1, 2, 3), DeriveTraceId(2, 2, 3));
  EXPECT_NE(DeriveTraceId(1, 2, 3), DeriveTraceId(1, 3, 3));
  EXPECT_NE(DeriveTraceId(1, 2, 3), DeriveTraceId(1, 2, 4));
}

TEST(DeriveTraceIdTest, NeverReturnsTheUnsetSentinel) {
  // 0 means "no trace"; even the all-zero identity must map elsewhere.
  EXPECT_NE(DeriveTraceId(0, 0, 0), 0u);
}

// ---------------------------------------------------------------------------
// TraceBuilder: sequential ids, bounds, CloseAll.
// ---------------------------------------------------------------------------

TEST(TraceBuilderTest, SequentialIdsAndFinish) {
  TraceBuilder b(/*trace_id=*/42);
  const std::uint32_t root =
      b.StartSpan(SpanKind::kServeRequest, kNoParentSpan, /*start_us=*/10);
  const std::uint32_t child =
      b.StartSpan(SpanKind::kPlanSample, root, 20, /*step=*/0, /*shard=*/0,
                  /*items=*/3);
  EXPECT_EQ(root, 0u);
  EXPECT_EQ(child, 1u);
  b.EndSpan(child, 30);
  EXPECT_FALSE(b.AllClosed());
  b.EndSpan(root, 40);
  EXPECT_TRUE(b.AllClosed());

  const Trace t = std::move(b).Finish(/*tenant=*/3, /*request_id=*/77,
                                      /*status=*/1);
  EXPECT_EQ(t.trace_id, 42u);
  EXPECT_EQ(t.tenant, 3u);
  EXPECT_EQ(t.request_id, 77u);
  EXPECT_EQ(t.status, 1u);
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].parent, kNoParentSpan);
  EXPECT_EQ(t.spans[1].parent, root);
  EXPECT_EQ(t.spans[1].items, 3u);
  EXPECT_EQ(t.DurationUs(), 30u);
}

TEST(TraceBuilderTest, BoundedSpansDropPastTheCap) {
  TraceBuilder b(/*trace_id=*/1, /*max_spans=*/2);
  const std::uint32_t a =
      b.StartSpan(SpanKind::kServeRequest, kNoParentSpan, 0);
  b.StartSpan(SpanKind::kPlanSample, a, 0);
  const std::uint32_t dropped = b.StartSpan(SpanKind::kPlanGather, a, 0);
  EXPECT_EQ(dropped, TraceBuilder::kDroppedSpan);
  EXPECT_EQ(b.dropped_spans(), 1u);
  // Ending a dropped span is a harmless no-op.
  b.EndSpan(TraceBuilder::kDroppedSpan, 5);
  b.CloseAll(9);
  EXPECT_TRUE(b.AllClosed());
  EXPECT_EQ(std::move(b).Finish(0, 0, 0).spans.size(), 2u);
}

TEST(TraceBuilderTest, CloseAllOnlyTouchesOpenSpans) {
  TraceBuilder b(/*trace_id=*/1);
  const std::uint32_t root =
      b.StartSpan(SpanKind::kServeRequest, kNoParentSpan, 0);
  const std::uint32_t done = b.StartSpan(SpanKind::kPlanSample, root, 1);
  b.StartSpan(SpanKind::kPlanGather, root, 2);
  b.EndSpan(done, 7);
  b.CloseAll(99);
  EXPECT_TRUE(b.AllClosed());
  const Trace t = std::move(b).Finish(0, 0, 0);
  EXPECT_EQ(t.spans[done].end_us, 7u) << "already-closed span keeps its end";
  EXPECT_EQ(t.spans[2].end_us, 99u);
  EXPECT_EQ(t.spans[root].end_us, 99u);
}

// ---------------------------------------------------------------------------
// TraceSink: bounded ring, newest win.
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, RingEvictsOldest) {
  TraceSink sink(/*capacity=*/2);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Trace t;
    t.trace_id = id;
    sink.Publish(std::move(t));
  }
  EXPECT_EQ(sink.published(), 3u);
  EXPECT_EQ(sink.evicted(), 1u);
  const std::vector<Trace> snap = sink.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].trace_id, 2u) << "oldest first";
  EXPECT_EQ(snap[1].trace_id, 3u);
  EXPECT_FALSE(sink.Find(1).has_value());
  EXPECT_TRUE(sink.Find(3).has_value());
}

// ---------------------------------------------------------------------------
// Serving-layer fixture (mirrors test_serve.cc).
// ---------------------------------------------------------------------------

ClusterConfig ServeClusterConfig(std::size_t shards) {
  ClusterConfig cfg;
  cfg.num_shards = shards;
  return cfg;
}

void PopulateGraph(GraphCluster* cluster, std::size_t num_vertices = 200) {
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (std::uint64_t k = 1; k <= 8; ++k) {
      const VertexId dst = (v * 7 + k * 13) % num_vertices;
      cluster->Apply({UpdateKind::kInsert,
                      Edge{v, dst, 1.0 + static_cast<double>(k), 0}});
    }
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    const std::size_t s = cluster->partitioner().ShardOf(v);
    cluster->shard(s).store().attributes().SetFeatures(
        v, {static_cast<float>(v), static_cast<float>(v) * 0.5f});
  }
}

/// A request exercising every span kind: two sample hops, client-side
/// negatives and a feature gather.
QueryRequest MakeDeepRequest(std::uint32_t tenant, std::uint64_t id,
                             std::uint64_t rng_seed,
                             std::vector<VertexId> seeds) {
  QueryRequest req;
  req.tenant = tenant;
  req.request_id = id;
  req.rng_seed = rng_seed;
  req.seeds = std::move(seeds);
  req.plan.Sample(/*fanout=*/4)
      .Sample(/*fanout=*/2, /*weighted=*/true, /*input=*/0)
      .NegativeSample(/*count=*/8, /*range_lo=*/0, /*range_hi=*/200,
                      /*input=*/1)
      .Gather(/*input=*/1);
  return req;
}

/// The structural identity of a span: everything except its timestamps.
/// Span ids are creation-order sequential, so including (id, parent)
/// compares the tree shape, not just the kind multiset.
Span StructureOnly(Span s) {
  s.start_us = 0;
  s.end_us = 0;
  return s;
}

std::vector<Span> StructureOf(const Trace& t) {
  std::vector<Span> out;
  out.reserve(t.spans.size());
  for (const Span& s : t.spans) out.push_back(StructureOnly(s));
  return out;
}

// ---------------------------------------------------------------------------
// Determinism: batched and solo executions build identical span TREES.
// ---------------------------------------------------------------------------

TEST(TraceServeTest, BatchedAndSoloEmitIdenticalSpanTrees) {
  GraphCluster batched_cluster(ServeClusterConfig(4));
  GraphCluster solo_cluster(ServeClusterConfig(4));
  PopulateGraph(&batched_cluster);
  PopulateGraph(&solo_cluster);
  EpochCoordinator epochs;

  ServeConfig batched_cfg;
  batched_cfg.batcher.max_batch = 8;  // all 8 requests form ONE batch
  GraphServer batched(&batched_cluster, &epochs, batched_cfg);

  ServeConfig solo_cfg;
  solo_cfg.batcher.max_batch = 1;
  GraphServer solo(&solo_cluster, &epochs, solo_cfg);

  std::vector<QueryRequest> requests;
  for (std::uint64_t i = 0; i < 8; ++i) {
    requests.push_back(MakeDeepRequest(i % 4, i, /*rng_seed=*/1000 + i,
                                       {i * 3, i * 3 + 1, i * 3 + 2}));
  }

  for (const QueryRequest& req : requests) {
    ASSERT_TRUE(batched.Submit(req, /*now_us=*/0).ok());
  }
  batched.Drain(0);
  ASSERT_EQ(batched.Stats().batches, 1u);

  for (const QueryRequest& req : requests) {
    ASSERT_TRUE(solo.Submit(req, /*now_us=*/0).ok());
    solo.Drain(0);
  }

  for (const QueryRequest& req : requests) {
    const std::uint64_t id =
        DeriveTraceId(req.tenant, req.request_id, req.rng_seed);
    const std::optional<Trace> b = batched.traces().Find(id);
    const std::optional<Trace> s = solo.traces().Find(id);
    ASSERT_TRUE(b.has_value()) << "request " << req.request_id;
    ASSERT_TRUE(s.has_value()) << "request " << req.request_id;
    EXPECT_EQ(StructureOf(*b), StructureOf(*s))
        << "batched span tree differs from solo for request "
        << req.request_id;

    // Sanity on the shape itself: one root, a step span per plan op, and
    // rpc children only under RPC-backed steps.
    ASSERT_FALSE(b->spans.empty());
    EXPECT_EQ(b->spans[0].kind, SpanKind::kServeRequest);
    EXPECT_EQ(b->spans[0].parent, kNoParentSpan);
    std::set<SpanKind> kinds;
    for (const Span& sp : b->spans) {
      EXPECT_TRUE(sp.closed);
      kinds.insert(sp.kind);
      if (sp.kind == SpanKind::kRpcShard) {
        EXPECT_EQ(b->spans[sp.parent].step, sp.step);
        EXPECT_GT(sp.items, 0u);
      }
    }
    EXPECT_TRUE(kinds.count(SpanKind::kPlanSample));
    EXPECT_TRUE(kinds.count(SpanKind::kPlanNegative));
    EXPECT_TRUE(kinds.count(SpanKind::kPlanGather));
    EXPECT_TRUE(kinds.count(SpanKind::kRpcShard));
  }
}

// ---------------------------------------------------------------------------
// Responses carry the derived id; propagated contexts are respected.
// ---------------------------------------------------------------------------

TEST(TraceServeTest, ResponsesCarryTheDerivedTraceId) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  GraphServer server(&cluster, &epochs, {});

  QueryRequest req = MakeDeepRequest(1, /*id=*/5, /*rng_seed=*/9, {1, 2});
  ASSERT_TRUE(server.Submit(req, 0).ok());
  server.Drain(0);
  const std::vector<QueryResponse> resp = server.TakeCompleted();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].trace_id, DeriveTraceId(1, 5, 9));
  EXPECT_TRUE(server.traces().Find(resp[0].trace_id).has_value());
}

// ---------------------------------------------------------------------------
// Shed path: an evicted request's trace is published with every span
// closed (CloseAll), status kShed.
// ---------------------------------------------------------------------------

TEST(TraceServeTest, ShedRequestStillClosesEverySpan) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.admission.max_in_flight = 1;
  cfg.admission.policy = serve::AdmissionPolicy::kShedOldest;
  cfg.batcher.max_batch = 64;
  GraphServer server(&cluster, &epochs, cfg);

  ASSERT_TRUE(server.Submit(MakeDeepRequest(0, 1, 1, {1}), 0).ok());
  ASSERT_TRUE(server.Submit(MakeDeepRequest(1, 2, 2, {2}), 5).ok());
  ASSERT_EQ(server.Stats().shed, 1u);

  // The victim's trace is published at shed time, before any drain.
  const std::uint64_t shed_id = DeriveTraceId(0, 1, 1);
  const std::optional<Trace> t = server.traces().Find(shed_id);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->status, static_cast<std::uint8_t>(RequestStatus::kShed));
  ASSERT_FALSE(t->spans.empty());
  for (const Span& s : t->spans) {
    EXPECT_TRUE(s.closed) << "span " << s.id << " leaked open through shed";
  }

  server.Drain(100);
  EXPECT_TRUE(server.traces().Find(DeriveTraceId(1, 2, 2)).has_value())
      << "the survivor retires with a trace too";
}

// ---------------------------------------------------------------------------
// Acceptance: a fault-injected SLO violation window carries an exemplar
// trace spanning serve (root) -> cluster round -> shard RPC.
// ---------------------------------------------------------------------------

TEST(TraceServeTest, FaultInjectedSloViolationCarriesExemplarTrace) {
  // Every RPC draws a slow fault: +500ms of virtual latency per round,
  // hundreds of times past the 2ms p99 target.
  ClusterConfig ccfg = ServeClusterConfig(2);
  ccfg.fault.slow_prob = 1.0;
  ccfg.fault.slow_extra_us = 500000;
  GraphCluster cluster(ccfg);
  PopulateGraph(&cluster);
  EpochCoordinator epochs;

  ServeConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.slo_target_p99_us = 2000;
  GraphServer server(&cluster, &epochs, cfg);

  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        server.Submit(MakeDeepRequest(i % 2, i, /*rng_seed=*/50 + i, {i}), 0)
            .ok());
  }
  server.Drain(0);

  const SloReport report = server.EndSloWindow();
  ASSERT_TRUE(report.violated) << "p99 " << report.p99_us;
  ASSERT_NE(report.exemplar_trace_id, 0u)
      << "a violated window must carry its worst-latency trace";

  const std::optional<Trace> t = server.traces().Find(report.exemplar_trace_id);
  ASSERT_TRUE(t.has_value()) << "exemplar must be resolvable in the sink";
  EXPECT_GT(t->DurationUs(), cfg.slo_target_p99_us);

  // The exemplar spans all three layers of the request's execution.
  std::set<SpanKind> kinds;
  for (const Span& s : t->spans) {
    EXPECT_TRUE(s.closed);
    kinds.insert(s.kind);
  }
  EXPECT_TRUE(kinds.count(SpanKind::kServeRequest)) << "serve layer";
  EXPECT_TRUE(kinds.count(SpanKind::kPlanSample)) << "cluster round";
  EXPECT_TRUE(kinds.count(SpanKind::kRpcShard)) << "shard RPC";

  // A clean follow-up window resets the exemplar tracking.
  const SloReport clean = server.EndSloWindow();
  EXPECT_FALSE(clean.violated);
  EXPECT_EQ(clean.exemplar_trace_id, 0u);
}

}  // namespace
}  // namespace platod2gl
