// Online serving layer tests (docs/serving.md): planner validation,
// batched-vs-solo bit-identity, the admission policy matrix, epoch-pinned
// snapshot consistency against a concurrent MicroBatcher, and SLO window
// accounting. Labels: serve;concurrency.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "dist/cluster.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"
#include "serve/admission.h"
#include "serve/executor.h"
#include "serve/query_plan.h"
#include "serve/request_batcher.h"
#include "serve/server.h"

namespace platod2gl {
namespace {

using serve::AdmissionPolicy;
using serve::GraphServer;
using serve::kPlanInputSeeds;
using serve::LoweredPlan;
using serve::OpKind;
using serve::OpSeed;
using serve::PlannerLimits;
using serve::QueryPlan;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::RequestStatus;
using serve::ServeConfig;
using serve::ServeStats;
using serve::SloReport;
using serve::ValidateAndLower;

// ---------------------------------------------------------------------------
// Planner: validation / rejection matrix and lowering.
// ---------------------------------------------------------------------------

TEST(QueryPlannerTest, ValidPipelineLowers) {
  QueryPlan plan;
  plan.Sample(/*fanout=*/8)
      .Sample(/*fanout=*/4, /*weighted=*/false, /*input=*/0)
      .NegativeSample(/*count=*/16, /*range_lo=*/0, /*range_hi=*/100,
                      /*input=*/1)
      .Gather(/*input=*/1);
  LoweredPlan lowered;
  ASSERT_TRUE(ValidateAndLower(plan, /*num_seeds=*/4, {}, &lowered).ok());
  ASSERT_EQ(lowered.steps.size(), 4u);
  EXPECT_EQ(lowered.steps[0].input_slot, 0u);  // seeds
  EXPECT_EQ(lowered.steps[1].input_slot, 1u);  // op 0's frontier
  EXPECT_EQ(lowered.steps[2].input_slot, 2u);
  EXPECT_EQ(lowered.steps[3].input_slot, 2u);
  // Negative sampling is client-side; 3 ops touch shards... no: sample,
  // sample, gather = 3 rounds.
  EXPECT_EQ(lowered.rpc_rounds, 3u);
  // Frontier bound: 4 seeds -> 32 -> 128; negatives cap at 16.
  EXPECT_EQ(lowered.max_frontier, 128u);
}

TEST(QueryPlannerTest, RejectionMatrix) {
  LoweredPlan lowered;
  PlannerLimits limits;

  {  // empty plan
    QueryPlan p;
    EXPECT_FALSE(ValidateAndLower(p, 1, limits, &lowered).ok());
  }
  {  // too many ops
    QueryPlan p;
    for (std::size_t i = 0; i <= limits.max_ops; ++i) p.Sample(2);
    EXPECT_FALSE(ValidateAndLower(p, 1, limits, &lowered).ok());
  }
  {  // zero seeds / too many seeds
    QueryPlan p;
    p.Sample(2);
    EXPECT_FALSE(ValidateAndLower(p, 0, limits, &lowered).ok());
    EXPECT_FALSE(
        ValidateAndLower(p, limits.max_seeds + 1, limits, &lowered).ok());
  }
  {  // zero / oversized fanout
    QueryPlan p;
    p.Sample(0);
    EXPECT_FALSE(ValidateAndLower(p, 1, limits, &lowered).ok());
    QueryPlan q;
    q.Sample(limits.max_fanout + 1);
    EXPECT_FALSE(ValidateAndLower(q, 1, limits, &lowered).ok());
  }
  {  // forward / self input reference
    QueryPlan p;
    p.Sample(2, true, /*input=*/0);  // op 0 consuming op 0
    EXPECT_FALSE(ValidateAndLower(p, 1, limits, &lowered).ok());
    QueryPlan q;
    q.Sample(2, true, /*input=*/5);  // dangling
    EXPECT_FALSE(ValidateAndLower(q, 1, limits, &lowered).ok());
  }
  {  // gather is a sink: consuming it is invalid
    QueryPlan p;
    p.Gather().Sample(2, true, /*input=*/0);
    EXPECT_FALSE(ValidateAndLower(p, 1, limits, &lowered).ok());
  }
  {  // negative-sample: empty range / zero count / oversized count
    QueryPlan p;
    p.NegativeSample(4, 10, 10);
    EXPECT_FALSE(ValidateAndLower(p, 1, limits, &lowered).ok());
    QueryPlan q;
    q.NegativeSample(0, 0, 100);
    EXPECT_FALSE(ValidateAndLower(q, 1, limits, &lowered).ok());
    QueryPlan r;
    r.NegativeSample(limits.max_negatives + 1, 0, 100);
    EXPECT_FALSE(ValidateAndLower(r, 1, limits, &lowered).ok());
  }
  {  // edge type beyond the store's relations
    QueryPlan p;
    p.Sample(2, true, kPlanInputSeeds, /*type=*/3);
    EXPECT_FALSE(ValidateAndLower(p, 1, limits, &lowered).ok());
    PlannerLimits multi = limits;
    multi.num_relations = 4;
    EXPECT_TRUE(ValidateAndLower(p, 1, multi, &lowered).ok());
  }
  {  // frontier explosion along a sample chain
    QueryPlan p;
    p.Sample(1024).Sample(1024, true, 0).Sample(1024, true, 1);
    EXPECT_FALSE(ValidateAndLower(p, 4096, limits, &lowered).ok());
  }
}

TEST(QueryPlannerTest, OpSeedIsPureAndPerOp) {
  EXPECT_EQ(OpSeed(42, 0), OpSeed(42, 0));
  EXPECT_NE(OpSeed(42, 0), OpSeed(42, 1));
  EXPECT_NE(OpSeed(42, 0), OpSeed(43, 0));
}

// ---------------------------------------------------------------------------
// Fixture: a fault-free cluster with a known topology + features.
// ---------------------------------------------------------------------------

ClusterConfig ServeClusterConfig(std::size_t shards) {
  ClusterConfig cfg;
  cfg.num_shards = shards;
  return cfg;
}

/// 200 vertices, ~8 neighbours each, plus 2-d features on every vertex.
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

QueryRequest MakeSampleRequest(std::uint32_t tenant, std::uint64_t id,
                               std::uint64_t rng_seed,
                               std::vector<VertexId> seeds,
                               std::uint32_t fanout = 4) {
  QueryRequest req;
  req.tenant = tenant;
  req.request_id = id;
  req.rng_seed = rng_seed;
  req.seeds = std::move(seeds);
  req.plan.Sample(fanout);
  return req;
}

// ---------------------------------------------------------------------------
// Determinism: a served plan is bit-identical to direct cluster calls.
// ---------------------------------------------------------------------------

TEST(ServeDeterminismTest, BatchedSampleIsBitIdenticalToSoloCalls) {
  GraphCluster cluster(ServeClusterConfig(4));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.batcher.max_batch = 8;  // all 8 requests coalesce into ONE batch
  GraphServer server(&cluster, &epochs, cfg);

  std::vector<QueryRequest> requests;
  for (std::uint64_t i = 0; i < 8; ++i) {
    requests.push_back(MakeSampleRequest(i % 4, i, /*rng_seed=*/1000 + i,
                                         {i * 3, i * 3 + 1, i * 3 + 2}));
  }
  for (const QueryRequest& req : requests) {
    ASSERT_TRUE(server.Submit(req, /*now_us=*/0).ok());
  }
  server.Drain(/*now_us=*/0);
  std::vector<QueryResponse> responses = server.TakeCompleted();
  ASSERT_EQ(responses.size(), 8u);
  EXPECT_EQ(server.Stats().batches, 1u) << "size trigger formed one batch";

  for (const QueryResponse& resp : responses) {
    const QueryRequest& req = requests[resp.request_id];
    // The exact call the executor's batched round must reproduce: same
    // derived per-op seed, same fanout, weighted.
    const SampleReport direct = cluster.SampleNeighborsChecked(
        req.seeds, /*fanout=*/4, /*weighted=*/true,
        OpSeed(req.rng_seed, 0), /*type=*/0);
    ASSERT_EQ(resp.stages.size(), 1u);
    EXPECT_EQ(resp.stages[0].ids, direct.batch.neighbors)
        << "request " << resp.request_id;
    ASSERT_EQ(resp.stages[0].offsets.size(), direct.batch.offsets.size());
    for (std::size_t i = 0; i < direct.batch.offsets.size(); ++i) {
      EXPECT_EQ(resp.stages[0].offsets[i], direct.batch.offsets[i]);
    }
    EXPECT_EQ(resp.status, RequestStatus::kOk);
  }
}

TEST(ServeDeterminismTest, ResultsIndependentOfBatchComposition) {
  // The same request served solo and inside a crowd of unrelated
  // requests must produce identical stages.
  const QueryRequest probe =
      MakeSampleRequest(0, /*id=*/99, /*rng_seed=*/7, {1, 2, 3});

  auto serve_once = [&](std::size_t crowd) -> std::vector<serve::StageOutput> {
    GraphCluster cluster(ServeClusterConfig(4));
    PopulateGraph(&cluster);
    EpochCoordinator epochs;
    ServeConfig cfg;
    cfg.batcher.max_batch = 32;
    GraphServer server(&cluster, &epochs, cfg);
    for (std::size_t i = 0; i < crowd; ++i) {
      EXPECT_TRUE(
          server
              .Submit(MakeSampleRequest(1, i, /*rng_seed=*/500 + i,
                                        {i * 5, i * 5 + 4}),
                      0)
              .ok());
    }
    EXPECT_TRUE(server.Submit(probe, 0).ok());
    server.Drain(0);
    for (QueryResponse& resp : server.TakeCompleted()) {
      if (resp.request_id == 99) return resp.stages;
    }
    ADD_FAILURE() << "probe response missing";
    return std::vector<serve::StageOutput>{};
  };

  const auto solo = serve_once(0);
  const auto crowded = serve_once(12);
  EXPECT_EQ(solo, crowded);
}

TEST(ServeExecutorTest, MultiOpPlanProducesConsistentStages) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  GraphServer server(&cluster, &epochs, {});

  QueryRequest req;
  req.tenant = 0;
  req.request_id = 5;
  req.rng_seed = 11;
  req.seeds = {1, 2};
  req.plan.Sample(/*fanout=*/3)
      .NegativeSample(/*count=*/8, /*range_lo=*/1000, /*range_hi=*/2000,
                      /*input=*/0)
      .Gather(/*input=*/0);
  ASSERT_TRUE(server.Submit(req, 0).ok());
  server.Drain(0);
  auto responses = server.TakeCompleted();
  ASSERT_EQ(responses.size(), 1u);
  const QueryResponse& resp = responses[0];
  ASSERT_EQ(resp.stages.size(), 3u);
  EXPECT_EQ(resp.status, RequestStatus::kOk);

  // Stage 0: 3 draws per seed.
  EXPECT_EQ(resp.stages[0].ids.size(), 6u);
  // Stage 1: negatives inside the range, avoiding stage 0's frontier.
  ASSERT_EQ(resp.stages[1].ids.size(), 8u);
  for (const VertexId v : resp.stages[1].ids) {
    EXPECT_GE(v, 1000u);
    EXPECT_LT(v, 2000u);
  }
  // Stage 2: one 2-d feature row per stage-0 vertex, matching the store.
  EXPECT_EQ(resp.stages[2].feature_dim, 2u);
  ASSERT_EQ(resp.stages[2].features.size(), 12u);
  for (std::size_t i = 0; i < resp.stages[0].ids.size(); ++i) {
    const float want = static_cast<float>(resp.stages[0].ids[i]);
    EXPECT_EQ(resp.stages[2].features[i * 2], want);
    EXPECT_EQ(resp.stages[2].features[i * 2 + 1], want * 0.5f);
  }
  // The pinned epoch is stamped.
  EXPECT_EQ(resp.epoch, 0u);
}

// ---------------------------------------------------------------------------
// Admission: the policy matrix.
// ---------------------------------------------------------------------------

TEST(AdmissionPolicyTest, RejectPolicyWindowAndQuota) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.admission.max_in_flight = 3;
  cfg.admission.tenant_quota = 2;
  cfg.admission.policy = AdmissionPolicy::kReject;
  cfg.batcher.max_batch = 64;  // nothing dispatches until we say so
  GraphServer server(&cluster, &epochs, cfg);

  // Tenant 0 fills its quota of 2.
  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 1, 1, {1}), 0).ok());
  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 2, 2, {2}), 0).ok());
  const Status quota = server.Submit(MakeSampleRequest(0, 3, 3, {3}), 0);
  EXPECT_EQ(quota.code(), StatusCode::kResourceExhausted);

  // Tenant 1 still fits (window 3), then the window is full for everyone.
  ASSERT_TRUE(server.Submit(MakeSampleRequest(1, 4, 4, {4}), 0).ok());
  const Status window = server.Submit(MakeSampleRequest(2, 5, 5, {5}), 0);
  EXPECT_EQ(window.code(), StatusCode::kResourceExhausted);

  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.admission.quota_rejects, 1u);
  EXPECT_EQ(stats.admission.window_rejects, 1u);
  EXPECT_EQ(stats.admission.in_flight, 3u);

  // Slots free once the work retires; the same tenant is admitted again.
  server.Drain(0);
  EXPECT_TRUE(server.Submit(MakeSampleRequest(0, 6, 6, {6}), 1000000).ok());
}

TEST(AdmissionPolicyTest, ShedOldestEvictsTheLongestWaiting) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.admission.max_in_flight = 2;
  cfg.admission.tenant_quota = 2;
  cfg.admission.policy = AdmissionPolicy::kShedOldest;
  cfg.batcher.max_batch = 64;
  GraphServer server(&cluster, &epochs, cfg);

  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 1, 1, {1}), 10).ok());
  ASSERT_TRUE(server.Submit(MakeSampleRequest(1, 2, 2, {2}), 20).ok());
  // Window full; the new arrival sheds request 1 (the longest waiting).
  ASSERT_TRUE(server.Submit(MakeSampleRequest(1, 3, 3, {3}), 30).ok());

  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.batcher.shed, 1u);

  auto completed = server.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].request_id, 1u);
  EXPECT_EQ(completed[0].status, RequestStatus::kShed);
  EXPECT_EQ(completed[0].latency_us, 20u);  // arrived 10, shed at 30
  EXPECT_TRUE(completed[0].stages.empty());

  // The survivors still execute.
  server.Drain(1000);
  completed = server.TakeCompleted();
  ASSERT_EQ(completed.size(), 2u);
  for (const QueryResponse& r : completed) {
    EXPECT_EQ(r.status, RequestStatus::kOk);
  }
}

TEST(AdmissionPolicyTest, ShedOutcomesAreAPureFunctionOfArrivalOrder) {
  // The same (seed, arrival order) must shed the same requests with the
  // same statuses, twice.
  auto run = [] {
    GraphCluster cluster(ServeClusterConfig(2));
    PopulateGraph(&cluster);
    EpochCoordinator epochs;
    ServeConfig cfg;
    cfg.admission.max_in_flight = 3;
    cfg.admission.tenant_quota = 2;
    cfg.admission.policy = AdmissionPolicy::kShedOldest;
    cfg.batcher.max_batch = 64;
    GraphServer server(&cluster, &epochs, cfg);
    for (std::uint64_t i = 0; i < 12; ++i) {
      (void)server.Submit(
          MakeSampleRequest(i % 3, i, /*rng_seed=*/i * 17, {i}), i * 10);
    }
    server.Drain(100000);
    std::vector<std::pair<std::uint64_t, RequestStatus>> outcome;
    for (const QueryResponse& r : server.TakeCompleted()) {
      outcome.emplace_back(r.request_id, r.status);
    }
    return outcome;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  std::size_t shed = 0;
  for (const auto& [id, status] : a) {
    if (status == RequestStatus::kShed) ++shed;
  }
  EXPECT_GT(shed, 0u) << "the overload actually shed something";
}

TEST(AdmissionPolicyTest, CloseRefusesNewWorkButDrainsQueued) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.batcher.max_batch = 64;
  GraphServer server(&cluster, &epochs, cfg);

  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 1, 1, {1}), 0).ok());
  server.Close();
  const Status after = server.Submit(MakeSampleRequest(0, 2, 2, {2}), 0);
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);

  server.Drain(0);
  const auto completed = server.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].request_id, 1u);
  EXPECT_EQ(completed[0].status, RequestStatus::kOk);
}

TEST(AdmissionPolicyTest, InvalidRequestsAreCountedNotAdmitted) {
  GraphCluster cluster(ServeClusterConfig(2));
  EpochCoordinator epochs;
  GraphServer server(&cluster, &epochs, {});

  QueryRequest bad_tenant = MakeSampleRequest(99, 1, 1, {1});
  EXPECT_EQ(server.Submit(bad_tenant, 0).code(),
            StatusCode::kInvalidArgument);

  QueryRequest bad_plan;
  bad_plan.tenant = 0;
  bad_plan.seeds = {1};
  EXPECT_EQ(server.Submit(bad_plan, 0).code(), StatusCode::kInvalidArgument);

  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.admission.in_flight, 0u);
  EXPECT_EQ(stats.batcher.queued, 0u);
}

// ---------------------------------------------------------------------------
// Cross-request batching: fewer rounds, same answers.
// ---------------------------------------------------------------------------

TEST(RequestBatchingTest, CoalescedBatchSharesRpcRounds) {
  GraphCluster cluster(ServeClusterConfig(4));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.batcher.max_batch = 16;
  GraphServer server(&cluster, &epochs, cfg);

  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        server.Submit(MakeSampleRequest(i % 4, i, i, {i, i + 50}), 0).ok());
  }
  server.Drain(0);
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 16u);
  // One sample op each, all coalesced into ONE cluster round — not 16.
  EXPECT_EQ(stats.rpc_rounds, 1u);
  EXPECT_EQ(server.TakeCompleted().size(), 16u);
}

TEST(RequestBatchingTest, DeadlineFormsPartialBatch) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.batcher.max_batch = 32;
  cfg.batcher.window_us = 200;
  GraphServer server(&cluster, &epochs, cfg);

  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 1, 1, {1}), 0).ok());
  EXPECT_EQ(server.Pump(100), 0u) << "formation window still open";
  EXPECT_EQ(server.Pump(200), 1u) << "deadline reached: batch of one";
  server.Drain(1000000);
  EXPECT_EQ(server.TakeCompleted().size(), 1u);
}

// ---------------------------------------------------------------------------
// Epoch pinning: one consistent G^(t) per batch while a MicroBatcher
// mutates the graph.
// ---------------------------------------------------------------------------

TEST(ServeEpochConsistencyTest, PlanSeesOneSnapshotUnderConcurrentMutation) {
  // One shard so vertex 1 is local; the serving plan reads vertex 1's
  // single neighbour twice (two traverse ops in two separate cluster
  // rounds). A MicroBatcher concurrently toggles that neighbour between
  // 2 and 3 — atomically, under the shared EpochCoordinator's write
  // barrier. If the executor's epoch pin ever lapsed between rounds, a
  // response could see both values.
  GraphCluster cluster(ServeClusterConfig(1));
  cluster.Apply({UpdateKind::kInsert, Edge{1, 2, 1.0, 0}});

  EpochCoordinator epochs;
  ThreadPool pool(2);
  TemporalEdgeLog log;
  UpdateIngestor ingestor(IngestorConfig{.num_shards = 1});
  MicroBatcher mutator(&cluster.shard(0).store(), &pool, &ingestor, &epochs,
                       &log);

  GraphServer server(&cluster, &epochs, {});

  std::thread writer([&] {
    VertexId cur = 2;
    for (std::uint64_t i = 0; i < 400; ++i) {
      const VertexId next = (cur == 2) ? 3 : 2;
      (void)ingestor.Offer(
          {2 * i + 1, {UpdateKind::kDelete, Edge{1, cur, 0.0, 0}}});
      (void)ingestor.Offer(
          {2 * i + 2, {UpdateKind::kInsert, Edge{1, next, 1.0, 0}}});
      mutator.PumpOnce(/*force=*/true);  // both updates in ONE micro-batch
      cur = next;
    }
  });

  for (std::uint64_t i = 0; i < 200; ++i) {
    QueryRequest req;
    req.tenant = 0;
    req.request_id = i;
    req.rng_seed = i;
    req.seeds = {1};
    req.plan.Traverse(/*cap=*/4).Traverse(/*cap=*/4);
    ASSERT_TRUE(server.Submit(req, i).ok());
    server.Drain(i);
    for (const QueryResponse& resp : server.TakeCompleted()) {
      ASSERT_EQ(resp.stages.size(), 2u);
      ASSERT_EQ(resp.stages[0].ids.size(), 1u)
          << "toggle applied atomically: always exactly one neighbour";
      EXPECT_EQ(resp.stages[0].ids, resp.stages[1].ids)
          << "both rounds read the same pinned snapshot";
    }
  }
  writer.join();
}

// ---------------------------------------------------------------------------
// SLO tracking: interval windows over the virtual-latency histograms.
// ---------------------------------------------------------------------------

TEST(SloTrackingTest, WindowsIsolateAndFlagViolations) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.slo_target_p99_us = 2000;
  GraphServer server(&cluster, &epochs, cfg);

  // Window 1: requests served immediately — low latency.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.Submit(MakeSampleRequest(0, i, i, {i}), 0).ok());
  }
  server.Drain(0);
  const SloReport w1 = server.EndSloWindow();
  EXPECT_EQ(w1.count, 4u);
  EXPECT_GT(w1.p99_us, 0.0);
  EXPECT_FALSE(w1.violated) << "p99 " << w1.p99_us;

  // Window 2: requests sit queued for 1s of virtual time before the
  // drain — far past the 2ms target.
  for (std::uint64_t i = 10; i < 14; ++i) {
    ASSERT_TRUE(server.Submit(MakeSampleRequest(1, i, i, {i}), 1000).ok());
  }
  server.Drain(1001000);
  const SloReport w2 = server.EndSloWindow();
  EXPECT_EQ(w2.count, 4u) << "the window sees only its own completions";
  EXPECT_GT(w2.p99_us, 500000.0);
  EXPECT_TRUE(w2.violated);

  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.slo_windows, 2u);
  EXPECT_EQ(stats.slo_violations, 1u);

  // Per-tenant histograms saw their own tenants only.
  EXPECT_EQ(server.tenant_latency(0)->Count(), 4u);
  EXPECT_EQ(server.tenant_latency(1)->Count(), 4u);
  EXPECT_EQ(server.tenant_latency(2)->Count(), 0u);
  EXPECT_EQ(server.tenant_latency(99), nullptr);
  EXPECT_EQ(server.latency().Count(), 8u);
}

TEST(SloTrackingTest, ShedRequestsStayOutOfLatencyHistograms) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.admission.max_in_flight = 1;
  cfg.admission.policy = AdmissionPolicy::kShedOldest;
  cfg.batcher.max_batch = 64;
  GraphServer server(&cluster, &epochs, cfg);

  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 1, 1, {1}), 0).ok());
  ASSERT_TRUE(server.Submit(MakeSampleRequest(1, 2, 2, {2}), 5).ok());
  EXPECT_EQ(server.Stats().shed, 1u);
  server.Drain(100);
  EXPECT_EQ(server.latency().Count(), 1u)
      << "only the served request is an SLO sample";
  EXPECT_EQ(server.Stats().completed, 2u);
}

// Client threads stamp arrivals with their own clocks, so a batch can
// complete before a request's arrival stamp. The latency is then 0, not
// a wrapped subtraction that indexes past the histogram's buckets.
TEST(SloTrackingTest, ArrivalAfterCompletionRecordsZeroLatency) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  GraphServer server(&cluster, &epochs, {});

  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 1, 1, {1}), 1'000'000).ok());
  server.Drain(0);
  const std::vector<QueryResponse> done = server.TakeCompleted();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, RequestStatus::kOk);
  EXPECT_EQ(done[0].latency_us, 0u);
  EXPECT_EQ(server.latency().Count(), 1u);
  EXPECT_EQ(server.tenant_latency(0)->Count(), 1u);
}

TEST(SloTrackingTest, ShedBeforeArrivalStampHasZeroLatency) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  ServeConfig cfg;
  cfg.admission.max_in_flight = 1;
  cfg.admission.policy = AdmissionPolicy::kShedOldest;
  cfg.batcher.max_batch = 64;
  GraphServer server(&cluster, &epochs, cfg);

  ASSERT_TRUE(server.Submit(MakeSampleRequest(0, 1, 1, {1}), 1'000'000).ok());
  ASSERT_TRUE(server.Submit(MakeSampleRequest(1, 2, 2, {2}), 5).ok());
  const std::vector<QueryResponse> done = server.TakeCompleted();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, RequestStatus::kShed);
  EXPECT_EQ(done[0].latency_us, 0u);
}

// ---------------------------------------------------------------------------
// Degradation visibility: a crashed shard yields kDegraded, not a hang.
// ---------------------------------------------------------------------------

TEST(ServeDegradationTest, CrashedShardDegradesResponses) {
  GraphCluster cluster(ServeClusterConfig(2));
  PopulateGraph(&cluster);
  EpochCoordinator epochs;
  GraphServer server(&cluster, &epochs, {});

  cluster.CrashShard(0);
  // Seeds spread over both shards: some frontier rows degrade.
  QueryRequest req;
  req.tenant = 0;
  req.request_id = 1;
  req.rng_seed = 3;
  req.seeds = {0, 1, 2, 3, 4, 5, 6, 7};
  req.plan.Traverse(/*cap=*/4);
  ASSERT_TRUE(server.Submit(req, 0).ok());
  server.Drain(0);
  const auto completed = server.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].status, RequestStatus::kDegraded);
  EXPECT_EQ(server.Stats().degraded, 1u);
}

}  // namespace
}  // namespace platod2gl
